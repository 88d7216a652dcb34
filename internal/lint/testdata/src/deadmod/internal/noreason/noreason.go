// Package noreason holds a //trips:api without a reason, which directive
// validation reports on the directive line.
package noreason

// Bare has no caller.
//
//trips:api
func Bare() {}
