//go:build race

package gdprkv_test

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops a random share of the values put
// back, so a pooled call's allocation count is not the code's.
const raceEnabled = true
