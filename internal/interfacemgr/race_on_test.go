//go:build race

package interfacemgr

// raceEnabled shortens the generated oracle under the race detector, which
// runs it about ten times slower; the refresh race has its own test.
const raceEnabled = true
