// Package lib declares the exported functions and methods the deadexport
// fixture classifies.
package lib

import "fmt"

func Unused() {} // want `exported lib.Unused has no non-test caller in the module`

// FacadeOnly is called only from the module's root package.
func FacadeOnly() {}

// Map is generic and called only through an instantiation.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Recursive calls itself and nothing else calls it.
func Recursive(n int) int { // want `exported lib.Recursive has no non-test caller`
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

// T carries the fixture's methods.
type T struct{ n int }

func (T) UnusedMethod() {} // want `exported lib.T.UnusedMethod has no non-test caller`

// MethodValue is taken as a method value and never called.
func (T) MethodValue() int { return 1 }

// String satisfies fmt.Stringer: fmt calls it, no identifier names it.
func (t T) String() string { return fmt.Sprint(t.n) }

// Area satisfies Shape, through which use.Total calls it.
func (T) Area() float64 { return 0 }

// Reset satisfies, on *T, an anonymous interface use.Use asserts.
func (t *T) Reset() { t.n = 0 }

// Shape is the fixture's own interface.
type Shape interface{ Area() float64 }

// Box is a generic type.
type Box[V any] struct{ v V }

// Get is called only on an instantiated Box.
func (b Box[V]) Get() V { return b.v }

// Kept has no caller in the module and says why it stays.
//
//trips:api callers outside the module use it
func Kept() {}

// Called has a caller, so its directive is stale and reported.
//
//trips:api stale: use.Use calls it
func Called() {}
