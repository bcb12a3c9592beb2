//go:build !race

package align

const raceEnabled = false
