//go:build race

package hot

// Race-detector builds set raceEnabled (declared in arena_test.go):
// instrumentation allocates, so allocation ceilings are asserted only
// in the non-race lane.
func init() { raceEnabled = true }
