//go:build race

package medmaker

// raceEnabled is set when the race detector is on: it changes allocation
// counts, so allocation guards skip.
const raceEnabled = true
