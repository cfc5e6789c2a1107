//go:build !race

package gdprkv_test

// raceEnabled reports whether this test binary was built with the race
// detector; see race_test.go.
const raceEnabled = false
