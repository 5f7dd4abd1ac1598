//go:build !race

package qos_test

const raceEnabled = false
