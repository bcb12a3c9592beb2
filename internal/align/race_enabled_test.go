//go:build race

package align

// raceEnabled lets allocation-count assertions skip themselves under the
// race detector, whose instrumentation allocates.
const raceEnabled = true
