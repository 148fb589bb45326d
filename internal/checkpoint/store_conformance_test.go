package checkpoint

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/vt"
)

func init() { gob.Register("") }

// fullCheckpoint builds a standalone checkpoint (full handler capture for
// every component) the way a durable-store engine would.
func fullCheckpoint(seq uint64) *Checkpoint {
	return &Checkpoint{
		Engine: "e1",
		Seq:    seq,
		VT:     vt.Time(int64(seq) * 1000),
		Components: map[string]ComponentState{
			"counter": {
				Sched:   sched.State{Clock: vt.Time(int64(seq) * 1000)},
				Kind:    HandlerFull,
				Handler: []byte(fmt.Sprintf("state-%d", seq)),
			},
		},
		Buffers: map[msg.WireID][]msg.Envelope{
			0: {{Wire: 0, Kind: msg.KindData, Seq: seq, VT: vt.Time(int64(seq)), Payload: "p"}},
		},
	}
}

// tableCheckpoint captures m — full, or only what changed since the last
// capture, however much that is — as checkpoint seq of the one-component
// engine the chain tests use.
func tableCheckpoint(t *testing.T, seq uint64, m *Map[string, int], delta bool) *Checkpoint {
	t.Helper()
	kind, capture := HandlerFull, m.Snapshot
	if delta {
		kind, capture = HandlerDelta, func() ([]byte, error) { data, _, err := m.Delta(); return data, err }
	}
	data, err := capture()
	if err != nil {
		t.Fatal(err)
	}
	return &Checkpoint{
		Engine: "e1", Seq: seq, VT: vt.Time(int64(seq) * 1000),
		Components: map[string]ComponentState{
			"table": {Sched: sched.State{Clock: vt.Time(int64(seq) * 1000)}, Kind: kind, Handler: data},
		},
	}
}

// foldTable restores the "table" component from a chain the way Reopen
// does: through a ReplicaStore.
func foldTable(t *testing.T, chain []*Checkpoint) map[string]int {
	t.Helper()
	r := NewReplicaStore()
	for _, ck := range chain {
		if err := r.Apply(ck); err != nil {
			t.Fatalf("folding seq %d: %v", ck.Seq, err)
		}
	}
	m := NewMap[string, int]()
	if _, _, err := r.RestoreInto("table", m); err != nil {
		t.Fatal(err)
	}
	return m.data
}

func seqsOf(chain []*Checkpoint) []uint64 {
	out := make([]uint64, len(chain))
	for i, ck := range chain {
		out[i] = ck.Seq
	}
	return out
}

// retainedSeqs lists every entry a backend currently holds, oldest first.
func retainedSeqs(s Store) []uint64 {
	var out []uint64
	switch s := s.(type) {
	case *MemStore:
		for _, e := range s.entries {
			out = append(out, e.seq)
		}
	case *FileStore:
		for _, e := range s.man.Entries {
			out = append(out, e.Seq)
		}
	}
	return out
}

// storeConformance is the shared Store contract suite, run against every
// backend. open returns a fresh store and a function that closes it and
// opens it again over the same state (the identity for a memory backend).
func storeConformance(t *testing.T, openBoth func(t *testing.T) (Store, func() Store)) {
	open := func(t *testing.T) Store { s, _ := openBoth(t); return s }
	t.Run("ChainFoldsToLiveState", func(t *testing.T) {
		s, reopen := openBoth(t)
		live := NewMap[string, int]()
		for i := 0; i < 50; i++ {
			live.Put(fmt.Sprintf("k%02d", i), i)
		}
		mustStore(t, s, tableCheckpoint(t, 1, live, false))
		live.Put("k03", 333)
		live.Delete("k04")
		mustStore(t, s, tableCheckpoint(t, 2, live, true))
		live.Put("new", 1)
		live.Put("k03", 334)
		mustStore(t, s, tableCheckpoint(t, 3, live, true))
		s = reopen()
		defer s.Close()
		chain, err := s.Chain()
		if err != nil {
			t.Fatal(err)
		}
		if got := seqsOf(chain); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
			t.Fatalf("Chain = seqs %v, want [1 2 3]", got)
		}
		if got := foldTable(t, chain); !reflect.DeepEqual(got, live.data) {
			t.Fatalf("chain folds to %d keys (k03=%d), live has %d (k03=%d)", len(got), got["k03"], live.Len(), live.data["k03"])
		}
		if ck, err := s.Latest(); err != nil || ck.Seq != 3 || ck.IsBase() {
			t.Fatalf("Latest = %+v, %v; want the delta with seq 3", ck, err)
		}
	})
	t.Run("DeltaMustExtendNewestEntry", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		m := NewMap[string, int]()
		m.Put("a", 1)
		if err := s.Apply(tableCheckpoint(t, 1, m, true)); err == nil {
			t.Fatal("delta applied to an empty store")
		}
		if s.Seq() != 0 {
			t.Fatalf("rejected delta left Seq = %d", s.Seq())
		}
		mustStore(t, s, tableCheckpoint(t, 1, m, false))
		if err := s.Apply(tableCheckpoint(t, 3, m, true)); err == nil {
			t.Fatal("delta seq 3 applied on top of newest entry seq 1")
		}
		mustStore(t, s, tableCheckpoint(t, 2, m, true))
		if chain, err := s.Chain(); err != nil || !reflect.DeepEqual(seqsOf(chain), []uint64{1, 2}) {
			t.Fatalf("Chain after rejected deltas = %v, %v; want [1 2]", seqsOf(chain), err)
		}
	})
	t.Run("RetainsTwoChains", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		m := NewMap[string, int]()
		// Bases at 1, 4, 6 and 11; every other entry extends its predecessor.
		for seq := uint64(1); seq <= 12; seq++ {
			m.Put("k", int(seq))
			base := seq == 1 || seq == 4 || seq == 6 || seq == 11
			mustStore(t, s, tableCheckpoint(t, seq, m, !base))
			var want []uint64
			switch {
			case seq < 4:
				want = []uint64{1, 2, 3}[:seq]
			case seq < 6:
				want = []uint64{1, 2, 3, 4, 5}[:seq]
			case seq < 11:
				want = []uint64{4, 5, 6, 7, 8, 9, 10}[:seq-3]
			default:
				want = []uint64{6, 7, 8, 9, 10, 11, 12}[:seq-5]
			}
			if got := retainedSeqs(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("after seq %d the store retains %v, want %v", seq, got, want)
			}
			chain, err := s.Chain()
			if err != nil || !chain[0].IsBase() || chain[len(chain)-1].Seq != seq {
				t.Fatalf("after seq %d Chain = %v, %v", seq, seqsOf(chain), err)
			}
			if got := foldTable(t, chain)["k"]; got != int(seq) {
				t.Fatalf("after seq %d the chain folds to k=%d", seq, got)
			}
		}
	})
	t.Run("EmptyStore", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if got := s.Seq(); got != 0 {
			t.Fatalf("empty store Seq = %d, want 0", got)
		}
		ck, err := s.Latest()
		if err != nil || ck != nil {
			t.Fatalf("empty store Latest = %v, %v; want nil, nil", ck, err)
		}
		if chain, err := s.Chain(); err != nil || chain != nil {
			t.Fatalf("empty store Chain = %v, %v; want nil, nil", chain, err)
		}
	})
	t.Run("LatestTracksNewest", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		for seq := uint64(1); seq <= 4; seq++ {
			if err := s.Apply(fullCheckpoint(seq)); err != nil {
				t.Fatalf("apply %d: %v", seq, err)
			}
		}
		if got := s.Seq(); got != 4 {
			t.Fatalf("Seq = %d, want 4", got)
		}
		ck, err := s.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if ck.Seq != 4 || ck.Engine != "e1" {
			t.Fatalf("Latest = seq %d engine %q, want 4 e1", ck.Seq, ck.Engine)
		}
		if got := string(ck.Components["counter"].Handler); got != "state-4" {
			t.Fatalf("handler state = %q, want state-4", got)
		}
		if got := len(ck.Buffers[0]); got != 1 {
			t.Fatalf("buffers lost: %d envelopes, want 1", got)
		}
	})
	t.Run("StaleAndDuplicateIgnored", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.Apply(fullCheckpoint(5)); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(fullCheckpoint(5)); err != nil {
			t.Fatalf("duplicate apply: %v", err)
		}
		if err := s.Apply(fullCheckpoint(3)); err != nil {
			t.Fatalf("stale apply: %v", err)
		}
		ck, err := s.Latest()
		if err != nil || ck.Seq != 5 {
			t.Fatalf("Latest after stale applies = %+v, %v; want seq 5", ck, err)
		}
	})
	t.Run("ClosedStoreRejectsApply", func(t *testing.T) {
		s := open(t)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(fullCheckpoint(1)); err == nil {
			t.Fatal("Apply after Close succeeded, want error")
		}
	})
	t.Run("LatestIsIsolatedCopy", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.Apply(fullCheckpoint(1)); err != nil {
			t.Fatal(err)
		}
		a, _ := s.Latest()
		a.Components["counter"] = ComponentState{Handler: []byte("mutated")}
		b, err := s.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if got := string(b.Components["counter"].Handler); got != "state-1" {
			t.Fatalf("mutating a Latest result leaked into the store: %q", got)
		}
	})
}

func mustStore(t *testing.T, s Store, ck *Checkpoint) {
	t.Helper()
	if err := s.Apply(ck); err != nil {
		t.Fatalf("apply seq %d: %v", ck.Seq, err)
	}
}

func TestMemStoreConformance(t *testing.T) {
	storeConformance(t, func(t *testing.T) (Store, func() Store) {
		s := NewMemStore()
		return s, func() Store { return s }
	})
}

func TestFileStoreConformance(t *testing.T) {
	storeConformance(t, func(t *testing.T) (Store, func() Store) {
		dir := filepath.Join(t.TempDir(), "ckpts")
		s := mustOpen(t, dir)
		return s, func() Store {
			s.Close()
			return mustOpen(t, dir)
		}
	})
}

func mustOpen(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFileStoreSurvivesReopen is the durability half of the contract:
// what Apply persisted, a new process (here: a new OpenFileStore) reads
// back, including the durable generation.
func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := s.Apply(fullCheckpoint(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetGeneration(3); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Seq(); got != 5 {
		t.Fatalf("reopened Seq = %d, want 5", got)
	}
	if got := r.Generation(); got != 3 {
		t.Fatalf("reopened Generation = %d, want 3", got)
	}
	ck, err := r.Latest()
	if err != nil || ck == nil || ck.Seq != 5 {
		t.Fatalf("reopened Latest = %+v, %v; want seq 5", ck, err)
	}
	if got := string(ck.Components["counter"].Handler); got != "state-5" {
		t.Fatalf("reopened handler state = %q", got)
	}
}

// TestFileStoreRetainsBounded checks old checkpoint files are pruned once
// the manifest stops referencing them: what is on disk is exactly what
// RetainsTwoChains says the store holds.
func TestFileStoreRetainsBounded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s := mustOpen(t, dir)
	defer s.Close()
	m := NewMap[string, int]()
	for seq := uint64(1); seq <= 25; seq++ {
		m.Put("k", int(seq))
		mustStore(t, s, tableCheckpoint(t, seq, m, seq%10 != 1))
	}
	var want []string // chains 11..20 and 21..25
	for seq := uint64(11); seq <= 25; seq++ {
		want = append(want, entryFile(seq))
	}
	if got := binFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint files on disk:\n  %v\nwant\n  %v", got, want)
	}
}

func binFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".bin" {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestFileStoreTornChainFallsBack tears entries of a two-chain store and
// checks what a reopen falls back to: the intact prefix of the newest chain
// for a torn delta, the previous chain for a torn base — each discarded
// entry counted, and never a chain without its base.
func TestFileStoreTornChainFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tear      uint64 // seq of the entry whose file is truncated
		wantChain []uint64
		fellBack  int
	}{
		{"NewestDelta", 6, []uint64{4, 5}, 1},
		{"MiddleDelta", 5, []uint64{4}, 2},
		{"NewestBase", 4, []uint64{1, 2, 3}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpts")
			s := mustOpen(t, dir)
			m := NewMap[string, int]()
			want := make(map[uint64]int) // k as of each seq
			for seq := uint64(1); seq <= 6; seq++ {
				m.Put("k", int(seq)*7)
				want[seq] = int(seq) * 7
				mustStore(t, s, tableCheckpoint(t, seq, m, seq != 1 && seq != 4))
			}
			s.Close()
			path := filepath.Join(dir, entryFile(tc.tear))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}

			r := mustOpen(t, dir)
			if got := r.TornFallbacks(); got != tc.fellBack {
				t.Errorf("TornFallbacks = %d, want %d", got, tc.fellBack)
			}
			chain, err := r.Chain()
			if err != nil {
				t.Fatal(err)
			}
			if got := seqsOf(chain); !reflect.DeepEqual(got, tc.wantChain) {
				t.Fatalf("fell back to chain %v, want %v", got, tc.wantChain)
			}
			newest := tc.wantChain[len(tc.wantChain)-1]
			if got := foldTable(t, chain)["k"]; got != want[newest] || r.Seq() != newest {
				t.Fatalf("fallback restores k=%d at Seq %d, want k=%d at %d", got, r.Seq(), want[newest], newest)
			}
			// The store keeps working from where it fell back to: the next
			// delta extends the surviving entry, not the lost one.
			m2 := NewMap[string, int]()
			m2.Put("k", -1)
			if err := r.Apply(tableCheckpoint(t, 7, m2, true)); err == nil {
				t.Error("a delta extending the discarded entry was accepted")
			}
			mustStore(t, r, tableCheckpoint(t, newest+1, m2, true))
			// The fallback is durable: a further reopen sees a clean store.
			r.Close()
			r2 := mustOpen(t, dir)
			defer r2.Close()
			if got := r2.TornFallbacks(); got != 0 {
				t.Errorf("second reopen TornFallbacks = %d, want 0", got)
			}
			if got := r2.Seq(); got != newest+1 {
				t.Errorf("second reopen Seq = %d, want %d", got, newest+1)
			}
		})
	}
}

// TestFileStoreOpensParentCommitDirectory opens a directory the commit
// before delta chains wrote (testdata/store_e35c537: three full checkpoints
// of a Map component, generation 2, no "delta" field in the manifest). It
// must read as chains of one and restore, with no migration step.
func TestFileStoreOpensParentCommitDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "store_e35c537"))); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	if s.TornFallbacks() != 0 || s.Seq() != 3 || s.Generation() != 2 {
		t.Fatalf("opened with %d fallbacks, Seq %d, generation %d; want 0, 3, 2", s.TornFallbacks(), s.Seq(), s.Generation())
	}
	chain, err := s.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if got := seqsOf(chain); !reflect.DeepEqual(got, []uint64{3}) {
		t.Fatalf("Chain = %v, want the newest full checkpoint alone", got)
	}
	want := map[string]int{"k1": 10, "k2": 20, "k3": 30, "shared": 3}
	if got := foldTable(t, chain); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %v, want %v", got, want)
	}
	// And it carries on as a chained store: a delta extends the old base.
	m := NewMap[string, int]()
	m.Put("shared", 4)
	mustStore(t, s, tableCheckpoint(t, 4, m, true))
	chain, err = s.Chain()
	if err != nil || foldTable(t, chain)["shared"] != 4 || foldTable(t, chain)["k1"] != 10 {
		t.Fatalf("delta on a parent-commit base: chain %v, %v", seqsOf(chain), err)
	}
}

// TestFileStoreTornWriteFallsBack injects a torn newest checkpoint (the
// manifest landed, the data didn't — or rotted afterwards) and checks a
// reopen falls back to the previous manifest entry instead of failing or
// serving garbage.
func TestFileStoreTornWriteFallsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Apply(fullCheckpoint(seq)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the newest checkpoint file: truncate it mid-content.
	newest := filepath.Join(dir, "ckpt-0000000000000003.bin")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("open with torn newest: %v", err)
	}
	defer r.Close()
	if got := r.TornFallbacks(); got != 1 {
		t.Fatalf("TornFallbacks = %d, want 1", got)
	}
	if got := r.Seq(); got != 2 {
		t.Fatalf("fell back to Seq %d, want 2", got)
	}
	ck, err := r.Latest()
	if err != nil || ck == nil || ck.Seq != 2 {
		t.Fatalf("Latest after fallback = %+v, %v; want seq 2", ck, err)
	}
	if got := string(ck.Components["counter"].Handler); got != "state-2" {
		t.Fatalf("fallback handler state = %q, want state-2", got)
	}
	// The fallback is durable: a further reopen sees a clean store.
	r.Close()
	r2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.TornFallbacks(); got != 0 {
		t.Fatalf("second reopen TornFallbacks = %d, want 0", got)
	}
	if got := r2.Seq(); got != 2 {
		t.Fatalf("second reopen Seq = %d, want 2", got)
	}
}

// TestFileStoreCorruptManifestIsAnError: an unreadable manifest is not
// silently treated as an empty store — that would discard recoverable
// state.
func TestFileStoreCorruptManifestIsAnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Apply(fullCheckpoint(1))
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(dir); err == nil {
		t.Fatal("OpenFileStore with corrupt manifest succeeded, want error")
	}
}
