// Package clean is the unreached golden's root package. Every function in
// the fixture is reached through one root kind, so it reports nothing.
package clean

import (
	"fmt"

	"indextune/internal/analysis/testdata/src/unreached/clean/internal/thing"
)

// A package-level var initializer runs at package initialization, so the
// function it references is reached.
var defaultName = name()

func name() string { return "clean" }

func init() { register() }

func register() { _ = defaultName }

// New returns an internal type, so thing.Thing's exported methods are
// public through this signature.
func New() *thing.Thing { return thing.Make() }

// Shapes exposes a module interface, so its module implementations are
// reached.
func Shapes() []thing.Shape { return thing.Squares() }

// Check returns a code as an error; the fmt.Stringer and error methods are
// called by the standard library.
func Check() error {
	if c := code(0); c.valid() {
		return nil
	}
	return failure{}
}

type code int

func (c code) valid() bool { return c >= 0 }

// String is reached through fmt.Stringer.
func (c code) String() string { return fmt.Sprint(int(c)) }

type failure struct{}

// Error is reached through error.
func (failure) Error() string { return "failure" }
