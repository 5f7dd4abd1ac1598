//go:build race

package layout

// raceEnabled reports that the test binary carries the race detector,
// which allocates on its own and so moves every allocation count.
const raceEnabled = true
