//go:build race

package core

// raceEnabled reports whether the race detector is compiled in: under
// it sync.Pool drops a share of Puts, so pooled paths allocate.
const raceEnabled = true
