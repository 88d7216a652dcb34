// Package deadmod is the deadexport fixture's facade: the module root, the
// package importers outside the module would use.
package deadmod

import (
	"deadmod/internal/lib"
	"deadmod/internal/use"
)

// Hello reaches lib.FacadeOnly, which nothing under internal/ calls.
func Hello() float64 {
	lib.FacadeOnly()
	use.Use()
	return use.Total(nil)
}
