//go:build !race

package nasd_test

const raceEnabled = false
