//go:build race

package aa_test

// raceEnabled: the race detector makes sync.Pool drop a share of the
// objects put back, so pooled paths allocate under it.
const raceEnabled = true
