// Package use calls lib the ways deadexport must see as live.
package use

import (
	"fmt"

	"deadmod/internal/lib"
)

// Use references lib's functions and methods.
func Use() {
	lib.Called()
	f := lib.T{}.MethodValue
	_ = f
	fmt.Println(lib.T{})
	_ = lib.Map[int]([]int{1}, func(x int) int { return x })
	_ = lib.Box[int]{}.Get()
	var v any = &lib.T{}
	if r, ok := v.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// Total sums areas through the fixture interface.
func Total(shapes []lib.Shape) float64 {
	var s float64
	for _, sh := range shapes {
		s += sh.Area()
	}
	return s
}
