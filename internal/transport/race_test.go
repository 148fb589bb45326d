//go:build race

package transport

// raceEnabled reports whether the race detector is compiled in; it charges
// bookkeeping allocations, so the allocation guards are meaningless under
// -race.
const raceEnabled = true
