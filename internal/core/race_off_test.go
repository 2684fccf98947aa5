//go:build !race

package core

// raceEnabled reports a -race build, whose instrumentation makes wall-time
// assertions meaningless.
const raceEnabled = false
