// Package memtest measures what one call allocates, for the tests that
// bound it.
package memtest

import "runtime"

// Least returns the bytes call allocated — the growth of
// runtime.MemStats.TotalAlloc across it — as the fewest of up to three
// tries, stopping at the first within limit. TotalAlloc is process-wide, so
// one reading also counts whatever other goroutines allocated meanwhile.
// Every try repeats the same deterministic work (arm, when not nil, first
// puts back the state call starts from, outside the measurement), so the
// least reading is call's own and a bound checked against it keeps its
// value.
func Least(limit uint64, arm, call func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 3 && least > limit; try++ {
		if arm != nil {
			arm()
		}
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
