//go:build race

package core

// Race-detector builds set raceEnabled (declared in levels_test.go):
// instrumentation allocates, so allocation ceilings are asserted only
// in the non-race lane.
func init() { raceEnabled = true }
