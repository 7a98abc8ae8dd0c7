//go:build race

package soap

// raceEnabled: the race detector makes sync.Pool drop entries at random,
// so an allocation count taken under it is not the code's.
const raceEnabled = true
