package sched

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"repro/internal/vt"
)

func TestChainNextSensitivity(t *testing.T) {
	base := ChainNext(ChainSeed(), 3, 7, 1000, PayloadDigest("hello"))
	variants := []uint64{
		ChainNext(ChainSeed(), 4, 7, 1000, PayloadDigest("hello")), // wire
		ChainNext(ChainSeed(), 3, 8, 1000, PayloadDigest("hello")), // seq
		ChainNext(ChainSeed(), 3, 7, 1001, PayloadDigest("hello")), // vt
		ChainNext(ChainSeed(), 3, 7, 1000, PayloadDigest("hellp")), // payload
		ChainNext(base, 3, 7, 1000, PayloadDigest("hello")),        // prev
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collides with base chain %#x", i, base)
		}
	}
	// Determinism: identical inputs give identical chains.
	if again := ChainNext(ChainSeed(), 3, 7, 1000, PayloadDigest("hello")); again != base {
		t.Errorf("chain not deterministic: %#x vs %#x", again, base)
	}
}

func TestPayloadDigest(t *testing.T) {
	if PayloadDigest([]string{"a", "b"}) != PayloadDigest([]string{"a", "b"}) {
		t.Error("equal payloads digest differently")
	}
	if PayloadDigest([]string{"a", "b"}) == PayloadDigest([]string{"a", "c"}) {
		t.Error("different payloads digest identically")
	}
	// Maps format with sorted keys, so digests are insertion-order-free.
	m1 := map[string]int{"x": 1, "y": 2}
	m2 := map[string]int{"y": 2, "x": 1}
	if PayloadDigest(m1) != PayloadDigest(m2) {
		t.Error("map digest depends on insertion order")
	}
	// A payload decoded off a socket holds fresh pointers: deep-equal
	// values must digest equal wherever their pointees live.
	type inner struct{ N int }
	type outer struct {
		K string
		P *inner
	}
	if PayloadDigest(outer{"k", &inner{7}}) != PayloadDigest(outer{"k", &inner{7}}) {
		t.Error("deep-equal payloads with distinct pointers digest differently")
	}
	if PayloadDigest(outer{"k", &inner{7}}) == PayloadDigest(outer{"k", &inner{8}}) {
		t.Error("payloads differing behind a pointer digest identically")
	}
	// A time.Time carries a monotonic reading that a gob round trip drops.
	now := time.Now()
	var buf bytes.Buffer
	var decoded time.Time
	if err := gob.NewEncoder(&buf).Encode(now); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if PayloadDigest(now) != PayloadDigest(decoded) {
		t.Error("a gob round-tripped time.Time digests differently")
	}
}

// chainAt folds n synthetic deliveries and returns every intermediate chain.
func chainAt(n int) []uint64 {
	chains := make([]uint64, n)
	c := ChainSeed()
	for i := 0; i < n; i++ {
		c = ChainNext(c, 1, uint64(i+1), vt.Time(i*100), PayloadDigest(i))
		chains[i] = c
	}
	return chains
}

func TestAuditLogRecordAndVerify(t *testing.T) {
	a := NewAuditLog()
	chains := chainAt(5)

	// First pass records.
	for i, c := range chains {
		if ok, _ := a.Check("comp", uint64(i), vt.Time(i*100), c); !ok {
			t.Fatalf("recording pass flagged index %d", i)
		}
	}
	// Replay with identical chains verifies clean.
	for i, c := range chains {
		if ok, _ := a.Check("comp", uint64(i), vt.Time(i*100), c); !ok {
			t.Fatalf("clean replay flagged index %d", i)
		}
	}
	// A diverged chain at index 3 is caught, and Check reports the original.
	ok, want := a.Check("comp", 3, 300, chains[3]^1)
	if ok {
		t.Error("diverged chain passed verification")
	}
	if want != chains[3] {
		t.Errorf("want = %#x, recorded %#x", want, chains[3])
	}
	// At exposes the recorded window.
	entry, ok := a.At("comp", 4)
	if !ok || entry.Chain != chains[4] || entry.VT != 400 {
		t.Errorf("At(4) = %+v, %v", entry, ok)
	}
	if _, ok := a.At("comp", 5); ok {
		t.Error("At past the window reported an entry")
	}
	if _, ok := a.At("other", 0); ok {
		t.Error("At on unknown component reported an entry")
	}
}

func TestAuditLogGapResetsWindow(t *testing.T) {
	a := NewAuditLog()
	chains := chainAt(3)
	for i, c := range chains {
		a.Check("comp", uint64(i), vt.Time(i), c)
	}
	// A gap (indices 3..9 never recorded — the recording generation died)
	// restarts the window rather than faulting.
	if ok, _ := a.Check("comp", 10, 1000, 42); !ok {
		t.Error("post-gap index flagged")
	}
	// The old prefix is gone; re-checks below the new base pass unverified.
	if ok, _ := a.Check("comp", 1, 1, 99999); !ok {
		t.Error("pre-window index should be unverifiable, not a fault")
	}
	// The new window verifies.
	if ok, _ := a.Check("comp", 10, 1000, 42); !ok {
		t.Error("new window does not verify")
	}
	if ok, _ := a.Check("comp", 10, 1000, 43); ok {
		t.Error("new window misses divergence")
	}
}

func TestAuditLogWindowTrim(t *testing.T) {
	a := NewAuditLog()
	n := maxAuditTrail + 10
	for i := 0; i < n; i++ {
		a.Check("comp", uint64(i), vt.Time(i), uint64(i)*3+1)
	}
	// The window holds exactly the newest maxAuditTrail entries.
	if _, ok := a.At("comp", uint64(n-maxAuditTrail)); !ok {
		t.Fatal("oldest retained index is not in the window")
	}
	if _, ok := a.At("comp", uint64(n-maxAuditTrail-1)); ok {
		t.Fatal("window holds more than maxAuditTrail entries")
	}
	// Trimmed-out indices are unverifiable (pass), retained ones still verify.
	if ok, _ := a.Check("comp", 0, 0, 77777); !ok {
		t.Error("trimmed index reported a fault")
	}
	last := uint64(n - 1)
	if ok, _ := a.Check("comp", last, vt.Time(last), last*3+1); !ok {
		t.Error("retained index does not verify")
	}
	if ok, _ := a.Check("comp", last, vt.Time(last), last*3+2); ok {
		t.Error("retained index misses divergence")
	}
}

// TestAuditLogFullWindowSlides pins a full window's trim to a slide: past
// maxAuditTrail, a Check may copy the window only when append outgrows the
// backing array, never once per delivery.
func TestAuditLogFullWindowSlides(t *testing.T) {
	a := NewAuditLog()
	for i := 0; i <= maxAuditTrail; i++ {
		a.Check("comp", uint64(i), 0, 1)
	}
	tr := a.trails["comp"]
	copies := 0
	for i := maxAuditTrail + 1; i <= 3*maxAuditTrail; i++ {
		next := &tr.entries[1]
		a.Check("comp", uint64(i), 0, 1)
		if &tr.entries[0] != next {
			copies++
		}
	}
	if copies > 64 {
		t.Errorf("%d of %d deliveries copied the audit window", copies, 2*maxAuditTrail)
	}
}

func TestAuditLogNilSafe(t *testing.T) {
	var a *AuditLog
	if ok, _ := a.Check("comp", 0, 0, 1); !ok {
		t.Error("nil log Check is not a pass")
	}
	if _, ok := a.At("comp", 0); ok {
		t.Error("nil log At reported an entry")
	}
	if a.Witnessed("comp", 0) {
		t.Error("nil log witnessed an index")
	}
}

func TestAuditLogComponentsIndependent(t *testing.T) {
	a := NewAuditLog()
	a.Check("a", 0, 0, 111)
	a.Check("b", 0, 0, 222)
	if ok, _ := a.Check("a", 0, 0, 111); !ok {
		t.Error("component a chain lost")
	}
	if ok, _ := a.Check("b", 0, 0, 111); ok {
		t.Error("component b verified against component a's chain")
	}
}
