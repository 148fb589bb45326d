package checkpoint

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"sort"
)

// Map is a checkpoint-aware hash map for large component state: it tracks
// the keys updated since the last checkpoint in an auxiliary set, so the
// engine can ship small deltas instead of the full table (paper §II.F.2).
// It also offers deterministic iteration (SortedKeys), which handler code
// must use instead of ranging over a built-in map when iteration order can
// influence outputs.
//
// Map is not safe for concurrent use; a component's handler runs
// single-threaded, so no synchronization is needed.
type Map[K ordered, V any] struct {
	data  map[K]V
	dirty map[K]bool // keys written or deleted since the last snapshot/delta
}

// ordered covers the key types Map supports: anything with a total order
// usable by sort (needed for deterministic iteration and encoding).
type ordered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~string
}

// NewMap returns an empty incremental map.
func NewMap[K ordered, V any]() *Map[K, V] {
	return &Map[K, V]{
		data:  make(map[K]V),
		dirty: make(map[K]bool),
	}
}

// Get returns the value for key and whether it is present.
func (m *Map[K, V]) Get(key K) (V, bool) {
	v, ok := m.data[key]
	return v, ok
}

// Put stores a value and marks the key dirty.
func (m *Map[K, V]) Put(key K, value V) {
	m.data[key] = value
	m.dirty[key] = true
}

// Delete removes a key and marks it dirty.
func (m *Map[K, V]) Delete(key K) {
	if _, ok := m.data[key]; !ok {
		return
	}
	delete(m.data, key)
	m.dirty[key] = true
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return len(m.data) }

// SortedKeys returns all keys in ascending order — the deterministic
// iteration order components must use.
func (m *Map[K, V]) SortedKeys() []K {
	keys := make([]K, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// DirtyCount returns the number of keys changed since the last capture.
func (m *Map[K, V]) DirtyCount() int { return len(m.dirty) }

// entry is one key's state in an encoded snapshot or delta.
type entry[K ordered, V any] struct {
	Key     K
	Value   V
	Deleted bool
}

// Stage implements Stager. It copies what the capture needs — every entry,
// or for a delta only the ones written or deleted since the last capture —
// and resets the dirty set, which is all that has to happen while the
// owning component is quiescent. The returned function sorts and encodes
// the copy and may run after the component has resumed: its output is what
// Snapshot (or Delta) would have produced at the moment of the copy.
//
// After a delta the dirty set is cleared in place rather than replaced, so
// from one delta to the next marking a key dirty allocates nothing. A full
// capture drops it instead: that is when it can be as large as the table
// (every key is dirty after a preload), and memory sized for that would
// otherwise stay with the set for good.
func (m *Map[K, V]) Stage(delta bool) func() ([]byte, error) {
	var entries []entry[K, V]
	if delta {
		entries = make([]entry[K, V], 0, len(m.dirty))
		for k := range m.dirty {
			v, ok := m.data[k]
			entries = append(entries, entry[K, V]{Key: k, Value: v, Deleted: !ok})
		}
		clear(m.dirty)
	} else {
		entries = m.entries()
		m.dirty = make(map[K]bool)
	}
	if !shallowCopyIsDeep(reflect.TypeFor[V]()) {
		// The copied values share memory with the live ones, which the
		// handler may write through once it resumes: encode now.
		data, err := encodeSorted(entries)
		return func() ([]byte, error) { return data, err }
	}
	return func() ([]byte, error) { return encodeSorted(entries) }
}

// entries copies the table, in map order.
func (m *Map[K, V]) entries() []entry[K, V] {
	entries := make([]entry[K, V], 0, len(m.data))
	for k, v := range m.data {
		entries = append(entries, entry[K, V]{Key: k, Value: v})
	}
	return entries
}

// shallowCopyIsDeep reports whether assigning a value of type t copies
// everything reachable from it: no pointers, slices, maps, interfaces,
// channels or functions anywhere inside (strings are immutable, so they
// count as values).
func shallowCopyIsDeep(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return shallowCopyIsDeep(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !shallowCopyIsDeep(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Snapshot implements Snapshotter: it encodes the full table and clears
// the dirty set.
func (m *Map[K, V]) Snapshot() ([]byte, error) { return m.Stage(false)() }

// Restore implements Snapshotter.
func (m *Map[K, V]) Restore(data []byte) error {
	entries, err := decodeEntries[K, V](data)
	if err != nil {
		return err
	}
	m.data = make(map[K]V, len(entries))
	for _, e := range entries {
		if !e.Deleted {
			m.data[e.Key] = e.Value
		}
	}
	m.dirty = make(map[K]bool)
	return nil
}

// Delta implements DeltaSnapshotter: it encodes only the dirty keys and
// clears the dirty set. A Map can always produce one (an empty delta is
// valid), so ok is false only beside an error.
func (m *Map[K, V]) Delta() ([]byte, bool, error) {
	data, err := m.Stage(true)()
	return data, err == nil, err
}

// ApplyDelta implements DeltaSnapshotter.
func (m *Map[K, V]) ApplyDelta(data []byte) error {
	entries, err := decodeEntries[K, V](data)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Deleted {
			delete(m.data, e.Key)
		} else {
			m.data[e.Key] = e.Value
		}
	}
	return nil
}

// GobEncode lets a Map field inside a gob-auto-captured component struct
// serialize transparently. Unlike Snapshot it does not clear the dirty set
// (encoding must not mutate).
func (m *Map[K, V]) GobEncode() ([]byte, error) { return encodeSorted(m.entries()) }

// GobDecode restores a Map encoded by GobEncode.
func (m *Map[K, V]) GobDecode(data []byte) error {
	return m.Restore(data)
}

var (
	_ Stager         = (*Map[string, int])(nil)
	_ gob.GobEncoder = (*Map[string, int])(nil)
	_ gob.GobDecoder = (*Map[string, int])(nil)
)

// encodeSorted orders entries by key — the deterministic encoding order —
// and serializes them.
func encodeSorted[K ordered, V any](entries []entry[K, V]) ([]byte, error) {
	slices.SortFunc(entries, func(a, b entry[K, V]) int { return cmp.Compare(a.Key, b.Key) })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, fmt.Errorf("checkpoint: encode map entries: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeEntries[K ordered, V any](data []byte) ([]entry[K, V], error) {
	var entries []entry[K, V]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("checkpoint: decode map entries: %w", err)
	}
	return entries, nil
}
