// Package deque is a FIFO of fixed-size chunks, the shape of every buffer
// the runtime appends to on the message path and trims from the front
// after a checkpoint: the engine's replay buffers and the in-memory input
// log. Appending never moves or clears what is already held, and dropping
// from the front releases whole chunks instead of copying the survivors,
// so neither a steady stream nor a trim round ever regrows a slice.
package deque

import "sort"

// ChunkLen is the number of elements per chunk (a power of two; a chunk of
// envelopes is ~26 KB, inside the allocator's small size classes).
const ChunkLen = 256

// Deque is a chunked FIFO. The zero value is empty and ready to use.
type Deque[T any] struct {
	chunks []*[ChunkLen]T
	head   int // offset of the oldest element within chunks[0]
	n      int // elements held
}

// Len returns the number of elements held.
func (d *Deque[T]) Len() int { return d.n }

// At returns the i-th oldest element, 0 <= i < Len.
func (d *Deque[T]) At(i int) *T {
	i += d.head
	return &d.chunks[i/ChunkLen][i%ChunkLen]
}

// Push appends v at the back.
func (d *Deque[T]) Push(v T) {
	if d.head+d.n == len(d.chunks)*ChunkLen {
		d.chunks = append(d.chunks, new([ChunkLen]T))
	}
	d.n++
	*d.At(d.n - 1) = v
}

// Search returns the index of the first element satisfying pred, which
// must be monotone over the deque's order (Len if none does).
func (d *Deque[T]) Search(pred func(*T) bool) int {
	return sort.Search(d.n, func(i int) bool { return pred(d.At(i)) })
}

// DropFront discards the oldest k <= Len elements.
func (d *Deque[T]) DropFront(k int) {
	head := d.head + k
	whole := head / ChunkLen // chunks entirely behind the new head
	if whole < len(d.chunks) {
		// Release what was trimmed out of the chunk that stays in front.
		from := 0
		if whole == 0 {
			from = d.head
		}
		clear(d.chunks[whole][from : head%ChunkLen])
	}
	rest := copy(d.chunks, d.chunks[whole:])
	clear(d.chunks[rest:])
	d.chunks = d.chunks[:rest]
	d.head = head % ChunkLen
	d.n -= k
}

// AppendTo appends the elements from index i on to dst.
func (d *Deque[T]) AppendTo(dst []T, i int) []T {
	for i < d.n {
		at := d.head + i
		c := d.chunks[at/ChunkLen][at%ChunkLen:]
		if len(c) > d.n-i {
			c = c[:d.n-i]
		}
		dst = append(dst, c...)
		i += len(c)
	}
	return dst
}
