//go:build !race

package compute

const raceEnabled = false
