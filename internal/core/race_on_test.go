//go:build race

package core

// raceEnabled shortens the generated oracles under the race detector, which
// runs them about ten times slower.
const raceEnabled = true
