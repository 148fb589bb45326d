package checkpoint

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// inPlaceCapture is the capture Map performed before it could be staged:
// walk the live table in key order and encode, all in one step, without
// touching the dirty set. It is the oracle the staged capture is compared
// against.
func inPlaceCapture[K ordered, V any](t *testing.T, m *Map[K, V], delta bool) []byte {
	t.Helper()
	keys := m.SortedKeys()
	if delta {
		keys = keys[:0]
		for k := range m.dirty {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	entries := make([]entry[K, V], 0, len(keys))
	for _, k := range keys {
		v, ok := m.data[k]
		entries = append(entries, entry[K, V]{Key: k, Value: v, Deleted: !ok})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flatRec has the shape of a record a shallow copy fully captures.
type flatRec struct {
	Count uint64
	Name  string
	Pad   [4]uint64
}

// TestStagedCaptureMatchesInPlace is the differential test for the
// copy-then-encode capture: for a run of random writes and deletes with a
// capture (every third one full) every few operations, the bytes the staged
// encode produces — while a writer goroutine is already mutating the map
// again, as a released handler would — equal what an in-place capture at
// the moment of the copy produces. Under -race it also shows the encode
// shares no memory with the live table, for a value type that a shallow
// copy captures (encoded after release) and for one it does not (encoded
// before).
func TestStagedCaptureMatchesInPlace(t *testing.T) {
	t.Run("FlatValues", func(t *testing.T) {
		stagedVersusInPlace(t,
			func(r *rand.Rand) flatRec {
				return flatRec{Count: r.Uint64(), Name: string(rune('a' + r.Intn(26))), Pad: [4]uint64{r.Uint64()}}
			},
			func(v flatRec) flatRec { v.Count++; v.Pad[1] ^= v.Count; return v })
	})
	t.Run("SliceValues", func(t *testing.T) {
		stagedVersusInPlace(t,
			func(r *rand.Rand) []int { return []int{r.Int(), r.Int()} },
			func(v []int) []int { v[0]++; return v }) // writes through the shared backing array
	})
}

func stagedVersusInPlace[V any](t *testing.T, fresh func(*rand.Rand) V, touch func(V) V) {
	r := rand.New(rand.NewSource(7))
	m := NewMap[uint64, V]()
	mutate := func(n int) {
		for i := 0; i < n; i++ {
			k := uint64(r.Intn(300))
			switch v, ok := m.Get(k); {
			case !ok:
				m.Put(k, fresh(r))
			case r.Intn(5) == 0:
				m.Delete(k)
			default:
				m.Put(k, touch(v))
			}
		}
	}
	mutate(1000)
	for round := 0; round < 40; round++ {
		delta := round%3 != 0
		want := inPlaceCapture(t, m, delta)
		encode := m.Stage(delta) // the quiescent section ends here
		if m.DirtyCount() != 0 {
			t.Fatalf("round %d: Stage left %d keys dirty", round, m.DirtyCount())
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); mutate(20 + 400*(round%2)) }()
		got, err := encode()
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d (delta=%v): staged capture is %d bytes, in-place %d, and they differ", round, delta, len(got), len(want))
		}
	}
}

func TestShallowCopyIsDeep(t *testing.T) {
	type nested struct {
		A [3]flatRec
		B struct{ X, Y float64 }
	}
	for _, tc := range []struct {
		v    any
		want bool
	}{
		{0, true}, {"s", true}, {flatRec{}, true}, {nested{}, true}, {[2]bool{}, true},
		{[]int(nil), false}, {map[string]int(nil), false}, {new(int), false},
		{struct{ P *int }{}, false}, {[1][]byte{}, false}, {struct{ I any }{}, false},
	} {
		if got := shallowCopyIsDeep(reflect.TypeOf(tc.v)); got != tc.want {
			t.Errorf("shallowCopyIsDeep(%T) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
