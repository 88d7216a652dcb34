//go:build !race

package dsm

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
