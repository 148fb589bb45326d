package deque

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDequeMatchesSlice drives a deque and a plain slice through the same
// random pushes and front drops, straddling chunk boundaries, and compares
// every read after each step.
func TestDequeMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d Deque[int]
	var ref []int
	next := 0
	for step := range 400 {
		for n := rng.Intn(ChunkLen * 3 / 2); n > 0; n-- {
			d.Push(next)
			ref = append(ref, next)
			next++
		}
		if k := rng.Intn(len(ref) + 1); step%3 != 0 {
			d.DropFront(k)
			ref = ref[k:]
		}
		if d.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, d.Len(), len(ref))
		}
		if got := d.AppendTo(nil, 0); !slices.Equal(got, ref) {
			t.Fatalf("step %d: AppendTo(0) differs from the reference", step)
		}
		if len(ref) == 0 {
			continue
		}
		i := rng.Intn(len(ref))
		if *d.At(i) != ref[i] {
			t.Fatalf("step %d: At(%d) = %d, want %d", step, i, *d.At(i), ref[i])
		}
		if got := d.AppendTo(nil, i); !slices.Equal(got, ref[i:]) {
			t.Fatalf("step %d: AppendTo(%d) differs from the reference", step, i)
		}
		want := ref[i]
		if got := d.Search(func(v *int) bool { return *v >= want }); got != i {
			t.Fatalf("step %d: Search(>= %d) = %d, want %d", step, want, got, i)
		}
	}
}

// TestDropFrontReleasesChunks checks that a trim keeps no chunk it emptied.
func TestDropFrontReleasesChunks(t *testing.T) {
	var d Deque[int]
	for i := range 3*ChunkLen + 10 {
		d.Push(i)
	}
	d.DropFront(2*ChunkLen + 1)
	if len(d.chunks) != 2 || d.head != 1 || *d.At(0) != 2*ChunkLen+1 {
		t.Fatalf("after trim: %d chunks, head %d, front %d", len(d.chunks), d.head, *d.At(0))
	}
	d.DropFront(d.Len())
	if len(d.chunks) > 1 {
		t.Fatalf("emptied deque keeps %d chunks", len(d.chunks))
	}
}
