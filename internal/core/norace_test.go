//go:build !race

package core_test

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of Puts, so a freed engine's buffers may
// never reach the next engine.
const raceEnabled = false
