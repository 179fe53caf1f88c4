// Package bad is the unreached golden's root package: its exported API is a
// root, and everything it does not reach is reported.
package bad

import "indextune/internal/analysis/testdata/src/unreached/bad/internal/dead"

// API is exported, so it and everything it calls are reached.
func API() int { return helper() + dead.Used() }

func helper() int { return 1 }

func unused() {} // want "unused is unreached"

// testOnly has a caller, but only in bad_test.go, which the loader skips.
func testOnly() int { return 2 } // want "testOnly is unreached"

// T is exported, so its exported methods are reached through the API.
type T struct{}

// Exported is reached: the API exposes T.
func (T) Exported() {}

func (T) unexported() {} // want "T.unexported is unreached"

type hidden struct{}

// Method is exported, but no API signature exposes hidden.
func (hidden) Method() {} // want "hidden.Method is unreached"
