//go:build race

package compute

// raceEnabled shortens the generated oracle under the race detector, which
// runs it about ten times slower.
const raceEnabled = true
