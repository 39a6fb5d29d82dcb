//go:build !race

package packet

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of Puts, so tests that expect the
// recycler to hand a released list back skip that expectation.
const raceEnabled = false
