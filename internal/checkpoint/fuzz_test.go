package checkpoint

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode drives arbitrary bytes through everything that
// reads a checkpoint back from disk: Decode over the entry bytes, and
// OpenFileStore / Latest / Chain over a directory whose manifest is either
// the raw fuzz input or a well-formed one (sizes and CRCs matching the
// entry bytes, so validation passes and the content is what gets tested)
// shaped by the fuzzed flags: which entries claim to be deltas, whether
// the sequence numbers skip, which files are missing. The contract: an
// error or a fallback, never a panic; and a chain that is returned starts
// with a base, is contiguous, and the store still accepts a new base.
func FuzzCheckpointDecode(f *testing.F) {
	m := NewMap[string, int]()
	m.Put("a", 1)
	enc := func(delta bool) []byte {
		kind, data := HandlerFull, []byte(nil)
		if delta {
			kind = HandlerDelta
			data, _, _ = m.Delta()
		} else {
			data, _ = m.Snapshot()
		}
		ck := &Checkpoint{Engine: "e1", Seq: 1, Components: map[string]ComponentState{"table": {Kind: kind, Handler: data}}}
		out, err := ck.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	full, delta := enc(false), enc(true)
	parent, err := os.ReadFile(filepath.Join("testdata", "store_e35c537", manifestName))
	if err != nil {
		f.Fatal(err)
	}
	for _, entry := range [][]byte{full, delta, full[:len(full)/2], {}, []byte("not gob")} {
		f.Add(parent, entry, uint16(0))      // raw manifest
		f.Add([]byte(nil), entry, uint16(1)) // built: four bases
		f.Add([]byte(nil), entry, uint16(1|0b0110<<1))
		f.Add([]byte(nil), entry, uint16(1|0b1111<<1))      // no base at all
		f.Add([]byte(nil), entry, uint16(1|0b0110<<1|1<<5)) // sequence gap
		f.Add([]byte(nil), entry, uint16(1|0b0100<<1|0b1000<<6))
	}
	f.Add([]byte(`{"generation":1,"entries":[{"seq":1,"file":"../../escape","size":0,"crc":0}]}`), full, uint16(0))
	f.Add([]byte(`{"entries":[{"seq":2,"file":"ckpt-0000000000000002.bin","delta":true}]}`), delta, uint16(0))
	f.Add([]byte(`{`), full, uint16(0))

	f.Fuzz(func(t *testing.T, rawManifest, entry []byte, shape uint16) {
		if ck, err := Decode(entry); err == nil {
			ck.IsBase()
			if _, err := ck.Encode(); err != nil {
				t.Fatalf("decoded checkpoint does not re-encode: %v", err)
			}
		}

		dir := t.TempDir()
		const n = 4
		if shape&1 == 1 {
			deltas, gap, missing := shape>>1&0xF, shape>>5&1, shape>>6&0xF
			var man manifest
			seq := uint64(0)
			for i := 0; i < n; i++ {
				seq++
				if i == 2 {
					seq += uint64(gap)
				}
				man.Entries = append(man.Entries, manifestEntry{
					Seq: seq, File: entryFile(seq), Size: int64(len(entry)),
					CRC: crc32.Checksum(entry, storeCastagnoli), Delta: deltas>>i&1 == 1,
				})
				if missing>>i&1 == 0 {
					writeFuzzFile(t, dir, entryFile(seq), entry)
				}
			}
			rawManifest, _ = json.Marshal(&man)
		} else {
			for seq := uint64(1); seq <= n; seq++ {
				writeFuzzFile(t, dir, entryFile(seq), entry)
			}
		}
		writeFuzzFile(t, dir, manifestName, rawManifest)

		s, err := OpenFileStore(dir)
		if err != nil {
			return
		}
		defer s.Close()
		_, _ = s.Latest()
		chain, err := s.Chain()
		if err == nil && len(chain) > 0 {
			if !chain[0].IsBase() {
				t.Fatalf("Chain starts with a delta (seq %d)", chain[0].Seq)
			}
			r := NewReplicaStore()
			for i, ck := range chain {
				if i > 0 && ck.Seq != chain[i-1].Seq+1 {
					t.Fatalf("Chain jumps from seq %d to %d", chain[i-1].Seq, ck.Seq)
				}
				if err := r.Apply(ck); err != nil {
					t.Fatalf("ReplicaStore rejects chain entry %d (seq %d): %v", i, ck.Seq, err)
				}
			}
			_, _, _ = r.RestoreInto("table", NewMap[string, int]())
		}
		// Whatever was on disk, the store accepts a new base and then serves it.
		next := &Checkpoint{Engine: "e1", Seq: s.Seq() + 1,
			Components: map[string]ComponentState{"table": {Kind: HandlerFull, Handler: []byte("x")}}}
		if next.Seq == 0 {
			return // the manifest claimed seq 2^64-1; nothing can follow it
		}
		if err := s.Apply(next); err != nil {
			t.Fatalf("store opened from fuzzed state rejects a new base: %v", err)
		}
		chain, err = s.Chain()
		if err != nil || len(chain) != 1 || chain[0].Seq != next.Seq {
			t.Fatalf("after a new base Chain = %d entries, %v", len(chain), err)
		}
	})
}

func writeFuzzFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}
