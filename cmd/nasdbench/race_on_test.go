//go:build race

package main

// raceEnabled reports that the test binary carries the race detector,
// under which every request is several times slower and wall-clock
// latency bounds calibrated for a plain binary do not hold.
const raceEnabled = true
