//go:build race

package validate

// raceEnabled reports a -race build. The race detector slows the full
// grid's exact LPs about tenfold, past go test's default timeout.
const raceEnabled = true
