//go:build race

package hdivexplorer

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
