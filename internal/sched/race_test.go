//go:build race

package sched

// raceEnabled reports whether the race detector is compiled in; it charges
// bookkeeping allocations, so the zero-alloc assertion is meaningless under
// -race.
const raceEnabled = true
