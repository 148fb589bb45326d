package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// storeCastagnoli guards checkpoint files against torn or bit-rotted
// content: the manifest records each file's CRC32-C, and open-time
// validation falls back past any entry whose bytes no longer match.
var storeCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifestName is the atomically rewritten index of a FileStore directory.
const manifestName = "MANIFEST"

// manifestEntry describes one durable checkpoint file. Delta is set on an
// entry that extends the one before it; an entry without it is a base, so
// a manifest written before deltas were stored reads as chains of one.
type manifestEntry struct {
	Seq   uint64 `json:"seq"`
	File  string `json:"file"`
	Size  int64  `json:"size"`
	CRC   uint32 `json:"crc"`
	Delta bool   `json:"delta,omitempty"`
}

// entryFile names the file holding the checkpoint with the given sequence
// number. Manifest entries naming anything else are not trusted.
func entryFile(seq uint64) string { return fmt.Sprintf("ckpt-%016d.bin", seq) }

// manifest is the FileStore's on-disk index: the engine's durable
// generation plus the retained checkpoints, oldest first.
type manifest struct {
	Generation uint64          `json:"generation"`
	Entries    []manifestEntry `json:"entries"`
}

// FileStore is a durable Store: each checkpoint is written to its own
// file under dir with a temp-write + fsync + rename discipline, then
// recorded in an atomically rewritten manifest. A crash at any point
// leaves either the old manifest (new checkpoint invisible, predecessor
// intact) or the new one (new checkpoint fully durable); a torn or
// corrupted checkpoint file is detected by its CRC at open time and the
// store falls back to the entries before it: the intact prefix of the
// newest chain, or the previous chain when the base itself is lost.
//
// The manifest also carries the engine's durable generation — the fencing
// token a cold restart bumps and persists before rejoining, so a zombie
// of the pre-crash incarnation is rejected by peers even across OS
// processes.
type FileStore struct {
	mu       sync.Mutex
	dir      string
	man      manifest
	closed   bool
	fellBack int

	onWrite func(bytes int64)
	onFsync func()
}

var _ Store = (*FileStore)(nil)

// OpenFileStore opens (creating if needed) the durable checkpoint store
// rooted at dir and validates its newest chain. A manifest entry whose
// file is missing, short, or fails its CRC is discarded together with
// everything after it — the torn-write fallback — so what remains always
// ends in an intact chain (or is empty).
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store %s: %w", dir, err)
	}
	s := &FileStore{dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &s.man); err != nil {
		return nil, fmt.Errorf("checkpoint: decode manifest %s: %w", dir, err)
	}
	// Validate the newest chain base-first; its first bad entry and all
	// after it are casualties (files removed best-effort — the manifest
	// rewrite is what makes the drop durable). If that was the base, the
	// chain before it is now the newest and is validated in turn.
	for len(s.man.Entries) > 0 {
		base := chainStart(1, len(s.man.Entries), s.isDelta)
		bad := base // a chain that does not start with a base is bad throughout
		if !s.isDelta(base) {
			for bad < len(s.man.Entries) && s.validate(bad, base) {
				bad++
			}
		}
		if bad == len(s.man.Entries) {
			break
		}
		for _, e := range s.man.Entries[bad:] {
			s.fellBack++
			s.remove(e)
		}
		s.man.Entries = s.man.Entries[:bad]
		if bad > base {
			break // the intact prefix base‥bad-1 is the newest chain
		}
	}
	if s.fellBack > 0 {
		if err := s.writeManifestLocked(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *FileStore) isDelta(i int) bool { return s.man.Entries[i].Delta }

// validate checks manifest entry i, a member of the chain starting at
// base: a delta must directly follow its predecessor, and the file must
// match the recorded size and CRC.
func (s *FileStore) validate(i, base int) bool {
	e := s.man.Entries[i]
	if i > base && e.Seq != s.man.Entries[i-1].Seq+1 {
		return false
	}
	_, err := s.read(e)
	return err == nil
}

// read returns one entry's file content after checking it against the
// manifest's size and CRC.
func (s *FileStore) read(e manifestEntry) ([]byte, error) {
	if e.File != entryFile(e.Seq) {
		return nil, fmt.Errorf("checkpoint: manifest entry seq %d names unexpected file %q", e.Seq, e.File)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", e.File, err)
	}
	if int64(len(data)) != e.Size || crc32.Checksum(data, storeCastagnoli) != e.CRC {
		return nil, fmt.Errorf("checkpoint: %s failed size/CRC validation", e.File)
	}
	return data, nil
}

// remove deletes an entry's file, best-effort, once no manifest refers to
// it — unless the name is not one this store would have given it.
func (s *FileStore) remove(e manifestEntry) {
	if e.File == entryFile(e.Seq) {
		_ = os.Remove(filepath.Join(s.dir, e.File))
	}
}

// TornFallbacks reports how many manifest entries the last Open discarded
// as torn or corrupt (0 for a clean store).
func (s *FileStore) TornFallbacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fellBack
}

// Dir returns the store's root directory.
func (s *FileStore) Dir() string { return s.dir }

// SetObserver installs write/fsync accounting hooks (both optional); the
// cluster routes them into the engine's metric registry.
func (s *FileStore) SetObserver(onWrite func(bytes int64), onFsync func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onWrite = onWrite
	s.onFsync = onFsync
}

// Apply implements Store: encode, temp-write, fsync, rename, fsync the
// directory, then durably record the new entry in the manifest. Only
// after the manifest rename is the checkpoint visible to a restart. A new
// base retires every chain but the one it succeeds.
func (s *FileStore) Apply(c *Checkpoint) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	if skip, err := admit(s.seqLocked(), c); skip || err != nil {
		return err
	}
	name := entryFile(c.Seq)
	if err := s.writeFileAtomic(name, data); err != nil {
		return fmt.Errorf("checkpoint: persist seq %d: %w", c.Seq, err)
	}
	s.man.Entries = append(s.man.Entries, manifestEntry{
		Seq: c.Seq, File: name, Size: int64(len(data)),
		CRC: crc32.Checksum(data, storeCastagnoli), Delta: !c.IsBase(),
	})
	keep := chainStart(retainChains, len(s.man.Entries), s.isDelta)
	evicted := s.man.Entries[:keep]
	s.man.Entries = append([]manifestEntry(nil), s.man.Entries[keep:]...)
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	// Old files are unreferenced once the manifest rename landed; their
	// removal needs no durability ceremony.
	for _, e := range evicted {
		s.remove(e)
	}
	if s.onWrite != nil {
		s.onWrite(int64(len(data)))
	}
	return nil
}

// Latest implements Store.
func (s *FileStore) Latest() (*Checkpoint, error) {
	newest, err := s.load(false)
	if err != nil || len(newest) == 0 {
		return nil, err
	}
	return newest[0], nil
}

// Chain implements Store. The result always starts with a base and runs
// contiguously to the newest entry; anything else on disk is an error.
func (s *FileStore) Chain() ([]*Checkpoint, error) {
	chain, err := s.load(true)
	if err != nil || len(chain) == 0 {
		return nil, err
	}
	if !chain[0].IsBase() {
		return nil, fmt.Errorf("checkpoint: chain in %s starts at seq %d, which is not a base", s.dir, chain[0].Seq)
	}
	for i, ck := range chain[1:] {
		if ck.Seq != chain[i].Seq+1 {
			return nil, fmt.Errorf("checkpoint: chain in %s jumps from seq %d to %d", s.dir, chain[i].Seq, ck.Seq)
		}
	}
	return chain, nil
}

// load reads, validates and decodes the newest manifest entry, or with
// chain set every entry of the newest chain.
func (s *FileStore) load(chain bool) ([]*Checkpoint, error) {
	s.mu.Lock()
	from := max(len(s.man.Entries)-1, 0)
	if chain {
		from = chainStart(1, len(s.man.Entries), s.isDelta)
	}
	entries := append([]manifestEntry(nil), s.man.Entries[from:]...)
	s.mu.Unlock()
	var out []*Checkpoint
	for _, e := range entries {
		data, err := s.read(e)
		if err != nil {
			return nil, err
		}
		ck, err := Decode(data)
		if err != nil {
			return nil, err
		}
		out = append(out, ck)
	}
	return out, nil
}

// Seq implements Store.
func (s *FileStore) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seqLocked()
}

func (s *FileStore) seqLocked() uint64 {
	if n := len(s.man.Entries); n > 0 {
		return s.man.Entries[n-1].Seq
	}
	return 0
}

// Generation returns the durable generation recorded in the manifest
// (0 before the first SetGeneration).
func (s *FileStore) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Generation
}

// SetGeneration durably records the engine incarnation's fencing token.
// A cold restart bumps and persists the generation *before* rejoining its
// peers, so the ordering "durable, then visible" holds for fencing the
// same way it does for checkpoints.
func (s *FileStore) SetGeneration(gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.man.Generation = gen
	return s.writeManifestLocked()
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// writeManifestLocked atomically replaces the manifest.
func (s *FileStore) writeManifestLocked() error {
	data, err := json.Marshal(&s.man)
	if err != nil {
		return fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	if err := s.writeFileAtomic(manifestName, data); err != nil {
		return fmt.Errorf("checkpoint: persist manifest: %w", err)
	}
	return nil
}

// writeFileAtomic writes name under the store directory with the full
// durability ceremony: temp file, fsync, rename over the target, fsync
// the directory so the rename itself survives power loss.
func (s *FileStore) writeFileAtomic(name string, data []byte) error {
	tmpPath := filepath.Join(s.dir, name+".tmp")
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	s.noteFsync()
	if err := f.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if d, err := os.Open(s.dir); err == nil {
		if d.Sync() == nil {
			s.noteFsync()
		}
		d.Close()
	}
	return nil
}

func (s *FileStore) noteFsync() {
	if s.onFsync != nil {
		s.onFsync()
	}
}
