package sched

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/msg"
	"repro/internal/vt"
)

// The determinism audit chain (paper §II.G.4, in the spirit of LLFT's
// replica-consistency checking): every component folds each delivered
// message's (wire, seq, VT, payload-digest) tuple into a rolling hash. The
// chain value after N deliveries is a fingerprint of the entire delivery
// prefix, so a replay or a passive replica that re-derives the chain and
// compares it against the original run's record detects the *first* point
// of divergence — a determinism fault — rather than inferring trouble from
// diverged outputs much later.

// PayloadDigest hashes a payload into a 64-bit digest. Payloads with a
// registered binary codec (including the built-in scalar payloads) are
// digested over their codec bytes — a deterministic function of the value,
// hashed with an inlined FNV-1a loop over a pooled buffer, so the hot path
// allocates nothing. Everything else is hashed over its JSON encoding,
// which follows pointers, sorts map keys, drops time.Time's monotonic
// reading and, like gob, sees only exported fields; a value JSON refuses
// (a channel, a NaN, a cycle) is formatted with %v instead. Neither %v alone
// (it prints nested pointers as addresses) nor gob bytes (its map encoding
// is ordering-dependent) would do: the digest must be a pure function of
// the value so that socket, loopback, and in-process hops — and replay —
// all agree.
// Collisions are possible but irrelevant at audit scale: the chain needs
// to notice a corrupted replay, not resist an adversary.
func PayloadDigest(v any) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	buf := msg.GetBuffer()
	b, _, ok, err := msg.AppendPayloadCodec((*buf)[:0], v)
	if ok && err == nil {
		h := uint64(offset64)
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
		*buf = b[:0]
		msg.PutBuffer(buf)
		return h
	}
	msg.PutBuffer(buf)
	h := fnv.New64a()
	if json.NewEncoder(h).Encode(v) != nil {
		fmt.Fprintf(h, "%v", v)
	}
	return h.Sum64()
}

// ChainNext folds one delivered message into a rolling audit chain value.
func ChainNext(prev uint64, wire msg.WireID, seq uint64, t vt.Time, digest uint64) uint64 {
	h := prev
	for _, v := range [...]uint64{uint64(uint32(wire)), seq, uint64(t), digest} {
		for i := 0; i < 64; i += 8 {
			h ^= v >> i & 0xff
			h *= 1099511628211 // FNV-1a prime
		}
	}
	return h
}

// auditChainSeed is the chain value before any delivery (FNV-1a offset
// basis), shared by schedulers and verifiers.
const auditChainSeed = 14695981039346656037

// ChainSeed returns the initial audit-chain value.
func ChainSeed() uint64 { return auditChainSeed }

// AuditEntry is one recorded chain point: the chain value after delivery
// Index (0-based) committed at virtual time VT.
type AuditEntry struct {
	Index uint64
	VT    vt.Time
	Chain uint64
}

// auditTrail is one component's recorded chain, a bounded window starting
// at delivery index base.
type auditTrail struct {
	base    uint64
	entries []AuditEntry
}

// maxAuditTrail bounds each component's recorded window; older entries are
// trimmed from the front. 64k deliveries of history is far more than any
// replay window (checkpoints trim replay well before that).
const maxAuditTrail = 1 << 16

// AuditLog is the replica-side record of every component's delivery chain.
// It outlives engine generations (the cluster owns it, like the flight
// recorder), so a recovered engine re-deriving its chain during replay is
// checked against what the original generation recorded.
type AuditLog struct {
	mu     sync.Mutex
	trails map[string]*auditTrail
}

// NewAuditLog creates an empty audit log.
func NewAuditLog() *AuditLog {
	return &AuditLog{trails: map[string]*auditTrail{}}
}

// Check records or verifies the chain value after delivery idx (0-based)
// for component comp. First sighting of an index records it; a repeat
// sighting (replay, replica) compares. It returns ok=false and the
// originally recorded value when the chains disagree — a determinism fault.
func (a *AuditLog) Check(comp string, idx uint64, t vt.Time, chain uint64) (ok bool, want uint64) {
	if a == nil {
		return true, chain
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tr := a.trails[comp]
	if tr == nil {
		tr = &auditTrail{base: idx}
		a.trails[comp] = tr
	}
	next := tr.base + uint64(len(tr.entries))
	switch {
	case idx < tr.base:
		// Trimmed out of the window; unverifiable, assume fine.
		return true, chain
	case idx < next:
		want = tr.entries[idx-tr.base].Chain
		return want == chain, want
	case idx == next:
		tr.entries = append(tr.entries, AuditEntry{Index: idx, VT: t, Chain: chain})
		if len(tr.entries) > maxAuditTrail {
			// Slide the window rather than copy it down: append copies the
			// live window only when it outgrows the backing array, so a full
			// trail costs O(1) per delivery, not a 64k-entry memmove.
			drop := len(tr.entries) - maxAuditTrail
			tr.entries = tr.entries[drop:]
			tr.base += uint64(drop)
		}
		return true, chain
	default:
		// A gap (the recording generation died before persisting these
		// indices). Restart the window here.
		tr.base = idx
		tr.entries = append(tr.entries[:0], AuditEntry{Index: idx, VT: t, Chain: chain})
		return true, chain
	}
}

// Witnessed reports whether delivery index idx for component comp falls
// inside (or before) the already-recorded window — i.e. the original
// generation already delivered it and the current sighting is a replay or
// replica re-derivation. Call before Check for the same index: Check
// extends the window, so afterwards every index reads as witnessed.
func (a *AuditLog) Witnessed(comp string, idx uint64) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tr := a.trails[comp]
	if tr == nil {
		return false
	}
	return idx < tr.base+uint64(len(tr.entries))
}

// At returns the recorded chain entry for component comp at delivery index
// idx, if it is inside the recorded window.
func (a *AuditLog) At(comp string, idx uint64) (AuditEntry, bool) {
	if a == nil {
		return AuditEntry{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tr := a.trails[comp]
	if tr == nil || idx < tr.base || idx >= tr.base+uint64(len(tr.entries)) {
		return AuditEntry{}, false
	}
	return tr.entries[idx-tr.base], true
}
