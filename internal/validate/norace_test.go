//go:build !race

package validate

const raceEnabled = false
