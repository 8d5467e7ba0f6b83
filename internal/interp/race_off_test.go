//go:build !race

package interp_test

// raceEnabled reports whether the race detector is compiled in; see
// TestVMSpeedupOverTree.
const raceEnabled = false
