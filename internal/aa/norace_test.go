//go:build !race

package aa_test

const raceEnabled = false
