//go:build !race

package interfacemgr

const raceEnabled = false
