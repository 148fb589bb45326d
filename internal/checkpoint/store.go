package checkpoint

import (
	"errors"
	"fmt"
	"sync"
)

// Store is a durable checkpoint backend: it accepts checkpoints the way a
// passive replica does (Apply is engine.Backup-compatible) and can hand
// them back after an arbitrary amount of time — including in a different
// OS process. It persists what the engine ships, full captures and deltas
// alike, as chains: an entry whose every component is a full capture is a
// base and starts a chain; any other entry extends the entry before it.
// Chain returns the newest chain, which a ReplicaStore folds back into
// restorable state. A Store retains the newest chain and the one before
// it, so a newest chain that turns out unreadable still leaves a
// restorable predecessor.
//
// Implementations must be safe for concurrent use.
type Store interface {
	// Apply persists one checkpoint. Stale or duplicate sequence numbers
	// are ignored (idempotent), matching ReplicaStore semantics. A delta
	// must directly extend the newest entry (its sequence number is the
	// newest's plus one); anything else is an error, because no chain
	// containing it could be restored.
	Apply(c *Checkpoint) error
	// Latest returns the newest persisted checkpoint — on its own
	// restorable only when it is a base — or nil when the store is empty.
	Latest() (*Checkpoint, error)
	// Chain returns the newest chain, base first, newest entry last; nil
	// when the store is empty.
	Chain() ([]*Checkpoint, error)
	// Seq returns the sequence number of the newest persisted checkpoint
	// (0 when empty).
	Seq() uint64
	// Close releases resources. Applying after Close is an error.
	Close() error
}

// ErrStoreClosed reports operations against a closed Store.
var ErrStoreClosed = errors.New("checkpoint: store closed")

// IsBase reports whether the checkpoint restores on its own: every
// component in it carries a full handler capture.
func (c *Checkpoint) IsBase() bool {
	for _, cs := range c.Components {
		if cs.Kind != HandlerFull {
			return false
		}
	}
	return true
}

// admit is the Apply rule every Store shares: given the sequence number of
// the newest entry held (0 when empty), it reports whether c is to be
// skipped as stale, and rejects a delta that would not extend that entry.
func admit(newest uint64, c *Checkpoint) (skip bool, err error) {
	if newest != 0 && c.Seq <= newest {
		return true, nil // duplicate or stale; idempotent
	}
	if !c.IsBase() && (newest == 0 || c.Seq != newest+1) {
		return false, fmt.Errorf("checkpoint: delta seq %d does not extend the store's newest entry (seq %d; 0 = empty)", c.Seq, newest)
	}
	return false, nil
}

// chainStart returns the index at which the n-th newest chain starts among
// count entries (oldest first) whose delta flags isDelta reports, or 0 when
// they hold fewer chains than that.
func chainStart(n, count int, isDelta func(i int) bool) int {
	for i := count - 1; i >= 0; i-- {
		if !isDelta(i) {
			if n--; n == 0 {
				return i
			}
		}
	}
	return 0
}

// retainChains is how many chains a Store keeps: the newest, and its
// predecessor to fall back to.
const retainChains = 2

// MemStore is an in-memory Store. Entries are kept as their encoded bytes
// so Latest and Chain hand back isolated copies exactly like a durable
// backend would. It is the conformance reference for FileStore and the
// backend of choice for tests that need Store semantics without a disk.
type MemStore struct {
	mu      sync.Mutex
	entries []memEntry // oldest first
	closed  bool
}

type memEntry struct {
	seq   uint64
	delta bool
	data  []byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Apply implements Store.
func (m *MemStore) Apply(c *Checkpoint) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if skip, err := admit(m.seqLocked(), c); skip || err != nil {
		return err
	}
	m.entries = append(m.entries, memEntry{seq: c.Seq, delta: !c.IsBase(), data: data})
	keep := chainStart(retainChains, len(m.entries), m.isDelta)
	m.entries = append([]memEntry(nil), m.entries[keep:]...)
	return nil
}

func (m *MemStore) isDelta(i int) bool { return m.entries[i].delta }

func (m *MemStore) seqLocked() uint64 {
	if n := len(m.entries); n > 0 {
		return m.entries[n-1].seq
	}
	return 0
}

// Latest implements Store.
func (m *MemStore) Latest() (*Checkpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.entries) == 0 {
		return nil, nil
	}
	return Decode(m.entries[len(m.entries)-1].data)
}

// Chain implements Store.
func (m *MemStore) Chain() ([]*Checkpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var chain []*Checkpoint
	for _, e := range m.entries[chainStart(1, len(m.entries), m.isDelta):] {
		ck, err := Decode(e.data)
		if err != nil {
			return nil, err
		}
		chain = append(chain, ck)
	}
	return chain, nil
}

// Seq implements Store.
func (m *MemStore) Seq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seqLocked()
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
