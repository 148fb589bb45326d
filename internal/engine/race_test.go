//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in; it charges
// bookkeeping allocations, so the allocation guards are meaningless under
// -race.
const raceEnabled = true
