//go:build race

package dsm

// raceEnabled reports that the race detector is instrumenting this build.
// Race instrumentation inhibits inlining and makes sync.Pool drop items,
// so allocation counts differ from production builds — the zero-alloc
// guard skips under it.
const raceEnabled = true
