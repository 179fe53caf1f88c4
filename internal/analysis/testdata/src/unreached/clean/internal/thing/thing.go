// Package thing holds the types the root package's signatures expose.
package thing

// Thing is returned by the root package's New.
type Thing struct{ n int }

// Make is called by the root package.
func Make() *Thing { return &Thing{n: 1} }

// Size is public only because a root signature returns *Thing.
func (t *Thing) Size() int { return t.n }

// Shape is exposed by the root package's Shapes.
type Shape interface{ Area() float64 }

// Squares is called by the root package.
func Squares() []Shape { return []Shape{square{}} }

type square struct{}

// Area is reached because the root API exposes Shape.
func (square) Area() float64 { return 1 }
