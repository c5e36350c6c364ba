//go:build !race

package loadgen

// raceEnabled reports whether the tests run under the race detector,
// which makes the harness an order of magnitude slower.
const raceEnabled = false
