// Package wal implements TART's stable logs (paper §II.E, §II.F.2,
// §II.G.4).
//
// Only two things are ever logged: (1) messages arriving from the external
// world — so that after a failover the recovered engine can replay inputs
// the failed engine had consumed but whose effects were not yet
// checkpointed; and (2) determinism faults — estimator recalibrations,
// logged synchronously with the virtual time at which they take effect so
// replay switches estimators at exactly the same point. Inter-component
// messages are never logged; that is the heart of the paper's low-overhead
// claim.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/deque"
	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
	"repro/internal/vt"
)

// InputRecord is one logged external input message.
type InputRecord struct {
	// Source names the external source (topology source name).
	Source string
	// Seq is the per-source sequence number, starting at 1.
	Seq uint64
	// VT is the virtual time stamped on the message at ingestion.
	VT vt.Time
	// Payload is the message payload (gob-encodable).
	Payload any
}

// SilenceFault is a logged silence-configuration change. Strategy switches
// are mere communication and need no log entry, but every switch is logged
// anyway, so that replay and replicas re-derive the same configuration at
// the same virtual time. (Switches into or out of HyperAggressive, which
// would alter output virtual times, are refused before they are logged.)
// Records are gob-encoded, and gob skips fields the type no longer has: a
// record written when silence.Config still carried a Bias field decodes
// with the field dropped.
type SilenceFault struct {
	// Config is the full configuration to install.
	Config silence.Config
	// EffectiveVT is the quantized epoch boundary at which it takes effect.
	EffectiveVT vt.Time
}

// FaultRecord is one logged determinism fault: either an estimator
// recalibration (Silence nil) or a silence-configuration change (Silence
// non-nil; Fault is then zero and ignored).
type FaultRecord struct {
	// Component names the component whose estimator or silence governor
	// changed.
	Component string
	// Fault carries the new coefficients and their effective virtual time.
	Fault estimator.Fault
	// Silence, when non-nil, marks this record as a silence-configuration
	// fault instead of an estimator fault.
	Silence *SilenceFault
}

// Log is a stable store for input and fault records. Implementations must
// be safe for concurrent use.
type Log interface {
	// AppendInput durably records an external input message.
	AppendInput(rec InputRecord) error
	// AppendFault durably records a determinism fault. It must be
	// synchronous: the fault may not take effect before this returns.
	AppendFault(rec FaultRecord) error
	// Inputs returns the logged inputs of one source with Seq >= fromSeq,
	// in sequence order. From 0 it lists whatever is retained; from a
	// sequence number at or below what TrimInputs discarded it is an error,
	// because the range asked for can no longer be complete.
	Inputs(source string, fromSeq uint64) ([]InputRecord, error)
	// Faults returns all logged faults of one component in log order.
	Faults(component string) ([]FaultRecord, error)
	// TrimInputs discards inputs of the source with Seq <= throughSeq
	// (safe once a checkpoint covers them).
	TrimInputs(source string, throughSeq uint64) error
	// Close releases resources.
	Close() error
}

// MemLog is an in-memory Log, standing in for the paper's "backup machine"
// stable store in tests and single-process experiments.
type MemLog struct {
	mu sync.Mutex
	// inputs holds each source's records in seq order, in a chunked deque:
	// a checkpoint's trim drops whole chunks and the next append does not
	// regrow a copy of the survivors.
	inputs map[string]*deque.Deque[InputRecord]
	// trimmed is, per source, the highest Seq TrimInputs has discarded
	// through: what tells an emptied log from one that never held a range.
	trimmed map[string]uint64
	faults  []FaultRecord
	closed  bool
}

var _ Log = (*MemLog)(nil)

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog {
	return &MemLog{inputs: make(map[string]*deque.Deque[InputRecord]), trimmed: make(map[string]uint64)}
}

// AppendInput implements Log.
func (l *MemLog) AppendInput(rec InputRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if err := l.checkSeqLocked(rec); err != nil {
		return err
	}
	recs := l.inputs[rec.Source]
	if recs == nil {
		recs = new(deque.Deque[InputRecord])
		l.inputs[rec.Source] = recs
	}
	recs.Push(rec)
	return nil
}

// checkSeqLocked refuses a record whose seq does not advance its source's.
func (l *MemLog) checkSeqLocked(rec InputRecord) error {
	recs := l.inputs[rec.Source]
	if recs == nil || recs.Len() == 0 {
		return nil
	}
	if last := recs.At(recs.Len() - 1).Seq; rec.Seq <= last {
		return fmt.Errorf("wal: input seq %d for %q not increasing (last %d)", rec.Seq, rec.Source, last)
	}
	return nil
}

// AppendFault implements Log.
func (l *MemLog) AppendFault(rec FaultRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	l.faults = append(l.faults, rec)
	return nil
}

// Inputs implements Log.
func (l *MemLog) Inputs(source string, fromSeq uint64) ([]InputRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if through := l.trimmed[source]; fromSeq != 0 && fromSeq <= through {
		return nil, fmt.Errorf("wal: source %q: inputs %d..%d were trimmed, so a replay from %d would silently skip them",
			source, fromSeq, through, fromSeq)
	}
	recs := l.inputs[source]
	if recs == nil {
		return []InputRecord{}, nil
	}
	i := recs.Search(func(r *InputRecord) bool { return r.Seq >= fromSeq })
	return recs.AppendTo(make([]InputRecord, 0, recs.Len()-i), i), nil
}

// Faults implements Log.
func (l *MemLog) Faults(component string) ([]FaultRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []FaultRecord
	for _, f := range l.faults {
		if f.Component == component {
			out = append(out, f)
		}
	}
	return out, nil
}

// validateInput checks one record against the append rules (open log,
// per-source monotone sequence) without mutating the log — the FileLog
// pre-flight that keeps its index and its disk in step: the index is only
// updated after the disk write succeeds, so a failed append leaves the
// same sequence retryable.
func (l *MemLog) validateInput(rec InputRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	return l.checkSeqLocked(rec)
}

// TrimInputs implements Log.
func (l *MemLog) TrimInputs(source string, throughSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if recs := l.inputs[source]; recs != nil {
		recs.DropFront(recs.Search(func(r *InputRecord) bool { return r.Seq > throughSeq }))
	}
	l.trimmed[source] = max(l.trimmed[source], throughSeq)
	return nil
}

// Close implements Log.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

var errLogClosed = errors.New("wal: log closed")

// entryKind tags entries in a file log.
type entryKind int8

const (
	entryInput entryKind = iota + 1
	entryFault
	entryTrim
)

// fileEntry is the on-disk record framing.
type fileEntry struct {
	Kind    entryKind
	Input   InputRecord
	Fault   FaultRecord
	Source  string // for trim entries
	Through uint64 // for trim entries
}

// FileLog is a file-backed Log: a sequence of length-prefixed, CRC-guarded
// binary frames (legacy gob frames still decode), made durable by a
// leader-based group commit.
//
// Commit protocol. Every appender — input, determinism fault or trim —
// validates its record and encodes its frame into the shared pending batch
// under the log mutex, then waits for that batch. One of the batch's own
// appenders commits it: a single WriteAt at the tracked end-of-file offset
// and a single Sync for the whole batch, after which the records are
// admitted to the in-memory index in file order and every waiter is
// released. While a commit is in flight new arrivals collect in the next
// batch. A call therefore returns only after the fsync covering its record,
// and the index never runs ahead of the disk. Determinism faults stay
// synchronous by riding the same commit.
//
// Gather rule. An appender that finds the log idle commits at once when the
// pending batch holds at least `gather` records, which is 1 — no wait, no
// goroutine hop — unless the last gatherWindow commits all saw more than one
// appender in the log at once (the just-committed batch plus what had queued
// behind it). Then the batch is held open until that many records have
// arrived: the arrival that completes the batch commits it itself, and the
// first arrival parks on a timer of a quarter of the usual fsync time (observeSync) so
// a sibling that stopped appending costs one bounded wait (Go timers can
// fire about a millisecond late on an idle process, so the bound is the
// larger of the two). A gather that runs past its budget counts as a lone
// commit, which turns gathering off until the evidence returns. Without the
// hold, two closed-loop appenders fall out of phase by one fsync and
// alternate one-record batches forever.
//
// Failure contract. A batch whose write or sync fails is rewound to the
// pre-batch offset (the truncation is retried before the next write if it
// fails too); every waiter of the batch gets the error, none of its
// records reaches the index, and every sequence number may be retried. On
// open the file is scanned to rebuild the index; a torn or corrupt tail is
// truncated to the last intact frame so later appends extend the good
// prefix instead of being orphaned behind garbage.
type FileLog struct {
	mu        sync.Mutex
	mem       *MemLog
	f         logFile
	path      string
	truncated int64
	closed    bool
	// off is the end of the durable prefix: where the next batch is written.
	off int64
	// dirty records that bytes may lie beyond off (an injected tear, or a
	// failed batch whose rewind failed too); the next commit truncates first.
	dirty bool
	// shortArmed makes the next commit physically tear mid-frame (chaos:
	// power loss under the pen). Armed via ArmShortWrite.
	shortArmed bool

	pending  *batch   // accepting frames; nil when empty
	inflight *batch   // being written and synced; nil when the log is idle
	free     []*batch // recycled batches
	// widths holds, for the last gatherWindow commits, how many appenders
	// were in the log when the commit finished; gather is their minimum.
	widths [gatherWindow]int
	gather int
	syncNs int64 // the usual duration of one Sync (see observeSync)
	obs    func(BatchStats)
}

// gatherWindow is how many consecutive commits must have seen concurrent
// appenders before a batch is held open for them. A closed loop arms it in
// four fsyncs; independent producers that merely coincide rarely do so four
// times running (at a quarter utilisation, under one commit in two hundred),
// which keeps a hold nobody joins out of their latency percentiles.
const gatherWindow = 4

// logFile is what FileLog needs of its file; tests substitute one whose
// Sync stalls or fails.
type logFile interface {
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// BatchStats describes one committed batch to the observer.
type BatchStats struct {
	Inputs, Faults, Trims int
	// Sync is how long the batch's one fsync took.
	Sync time.Duration
}

// SetObserver installs a hook called once per committed batch, after the
// fsync and outside the log mutex; the cluster routes it into the engine's
// metric registry.
func (l *FileLog) SetObserver(fn func(BatchStats)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.obs = fn
}

// batch is one group commit: the encoded frames, the records to admit to
// the index once they are durable, and the state its appenders wait on.
type batch struct {
	done    sync.Cond // broadcast when committed is set; L is the log mutex
	buf     []byte
	recs    []fileEntry
	err     error
	waiters int // appenders (and Close/Compact) still reading this batch
	// committed: err is final and the appenders may return.
	committed bool
	// holder: an appender is parked on timer/wake, holding the batch open.
	holder bool
	// expired: the hold is over; the batch commits at the next look.
	expired bool
	heldAt  time.Time
	timer   *time.Timer
	wake    chan struct{} // capacity 1: ends the holder's park early
}

var _ Log = (*FileLog)(nil)

// OpenFileLog opens (creating if needed) a file-backed log and replays its
// contents into memory. A torn final frame (crash mid-append) or a frame
// whose CRC32 does not match its body (disk corruption) ends the usable
// log: everything after the last intact frame is truncated away, so the
// next append lands where the scan stopped. A frame whose CRC holds but
// whose body does not decode (an unregistered payload type, an unknown
// entry kind) is an error naming its offset, and the file is left as it
// was. A newly created log's directory entry is fsynced before the log is
// handed out.
func OpenFileLog(path string) (*FileLog, error) {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	mem, good, size, err := scan(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &FileLog{mem: mem, f: f, path: path, off: good, gather: 1}
	if size > good {
		l.truncated = size - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	if errors.Is(statErr, fs.ErrNotExist) {
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open %s: %w", path, err)
		}
	}
	return l, nil
}

// ScanFile replays the log at path into an in-memory index without
// repairing it: the file is opened read-only, never created, truncated or
// written. It also reports how many bytes of torn or corrupt tail follow
// the last intact frame; a frame that does not decode is an error, as in
// OpenFileLog. Safe to run against a live engine's log.
func ScanFile(path string) (*MemLog, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	mem, good, size, err := scan(f)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	return mem, size - good, nil
}

// scan replays every intact frame of f into a fresh index and returns it
// with the offset just past the last intact frame and the file's size.
func scan(f *os.File) (mem *MemLog, good, size int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("stat: %w", err)
	}
	mem, good, err = scanFrames(bufio.NewReader(f), fi.Size())
	return mem, good, fi.Size(), err
}

// scanFrames replays the frames of a size-byte log from r into a fresh
// index and returns it with the offset just past the last intact frame.
// Only a torn or corrupt frame — a short read, a length past maxFrameSize
// or past the end of the log, a CRC mismatch — ends the log; the bytes from
// there on are its tail. A frame whose CRC holds but whose body does not
// decode was written whole and is durable, so it is an error naming its
// offset, never a tail to drop.
func scanFrames(r io.Reader, size int64) (mem *MemLog, good int64, err error) {
	mem = NewMemLog()
	for {
		body, n, err := readFrame(r, size-good)
		if err != nil {
			return mem, good, nil
		}
		e, err := decodeEntry(body)
		if err == nil {
			err = mem.admit(&e)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("frame at offset %d: %w", good, err)
		}
		good += n
	}
}

// admit applies one durable entry to the index.
func (l *MemLog) admit(e *fileEntry) error {
	switch e.Kind {
	case entryInput:
		return l.AppendInput(e.Input)
	case entryFault:
		return l.AppendFault(e.Fault)
	default:
		return l.TrimInputs(e.Source, e.Through)
	}
}

// syncDir fsyncs a directory, so a file creation or rename inside it
// survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// TruncatedBytes reports how many bytes of torn or corrupt tail the last
// Open discarded (0 for a clean log) — an observability hook for recovery
// tooling and tests.
func (l *FileLog) TruncatedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// castagnoli is the CRC32-C table used for frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the per-frame overhead: 4-byte big-endian body length
// followed by a 4-byte CRC32-C of the body.
const frameHeaderSize = 8

// Frame bodies come in two formats. New appends are binary: a walMagic
// first byte, a version, the entry kind, then fixed little-endian fields
// with payloads encoded by the msg payload codec (pooled buffers, no
// reflective walk, no per-record type preamble). Bodies whose first byte
// is not walMagic are legacy self-contained gob records and still decode,
// so logs written before the binary format replay unchanged. The magic
// cannot collide with gob: a gob stream starts with a uvarint message
// length, and 0xFB as its first byte declares a multi-gigabyte message,
// which maxFrameSize rejects long before this scan.
const (
	walMagic   = 0xFB
	walVersion = 1
)

// readFrame reads one frame of at most left bytes, verifying its CRC, and
// returns its body and the bytes it consumed. Any error means the frame is
// torn or corrupt; io.EOF means a clean end. The length prefix is checked
// against left before the body is allocated, so a corrupt prefix cannot
// allocate past the file.
func readFrame(r io.Reader, left int64) ([]byte, int64, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	if n > maxFrameSize || int64(n) > left-frameHeaderSize {
		return nil, 0, fmt.Errorf("wal: frame size %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0, err
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, 0, errCorruptFrame
	}
	return buf, int64(frameHeaderSize) + int64(n), nil
}

// decodeEntry decodes one frame body, binary or legacy gob.
func decodeEntry(buf []byte) (fileEntry, error) {
	if len(buf) > 0 && buf[0] == walMagic {
		return decodeBinaryEntry(buf)
	}
	var e fileEntry
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&e); err != nil {
		return fileEntry{}, fmt.Errorf("wal: legacy entry: %w", err)
	}
	if e.Kind < entryInput || e.Kind > entryTrim {
		return fileEntry{}, fmt.Errorf("wal: unknown entry kind %d", e.Kind)
	}
	return e, nil
}

func decodeBinaryEntry(buf []byte) (fileEntry, error) {
	if len(buf) < 3 {
		return fileEntry{}, errors.New("wal: binary entry truncated")
	}
	if buf[1] != walVersion {
		return fileEntry{}, fmt.Errorf("wal: unsupported entry version %d", buf[1])
	}
	e := fileEntry{Kind: entryKind(int8(buf[2]))}
	rest := buf[3:]
	switch e.Kind {
	case entryInput:
		source, rest, err := cutLenString(rest)
		if err != nil {
			return fileEntry{}, err
		}
		if len(rest) < 20 {
			return fileEntry{}, errors.New("wal: input entry truncated")
		}
		e.Input.Source = source
		e.Input.Seq = binary.LittleEndian.Uint64(rest)
		e.Input.VT = vt.Time(int64(binary.LittleEndian.Uint64(rest[8:])))
		id := binary.LittleEndian.Uint32(rest[16:])
		payload, _, err := msg.DecodePayload(id, rest[20:])
		if err != nil {
			return fileEntry{}, fmt.Errorf("wal: input payload: %w", err)
		}
		e.Input.Payload = payload
	case entryTrim:
		source, rest, err := cutLenString(rest)
		if err != nil {
			return fileEntry{}, err
		}
		if len(rest) != 8 {
			return fileEntry{}, errors.New("wal: trim entry truncated")
		}
		e.Source = source
		e.Through = binary.LittleEndian.Uint64(rest)
	case entryFault:
		// Faults are rare (estimator recalibrations) and carry an open
		// struct; self-describing gob inside the binary envelope keeps them
		// evolvable without wire churn.
		if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&e.Fault); err != nil {
			return fileEntry{}, fmt.Errorf("wal: fault entry: %w", err)
		}
	default:
		return fileEntry{}, fmt.Errorf("wal: unknown entry kind %d", e.Kind)
	}
	return e, nil
}

// cutLenString splits a u16-length-prefixed string off the front of b.
func cutLenString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("wal: string length truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, errors.New("wal: string truncated")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// errCorruptFrame reports a frame whose body does not match its CRC.
var errCorruptFrame = errors.New("wal: frame CRC mismatch")

// maxFrameSize bounds a single log record (64 MiB).
const maxFrameSize = 64 << 20

// appendEntry appends e's binary body encoding to dst.
func appendEntry(dst []byte, e *fileEntry) ([]byte, error) {
	dst = append(dst, walMagic, walVersion, byte(e.Kind))
	appendLenString := func(dst []byte, s string) ([]byte, error) {
		if len(s) > 0xFFFF {
			return nil, fmt.Errorf("wal: source name %d bytes exceeds limit", len(s))
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
		return append(dst, s...), nil
	}
	switch e.Kind {
	case entryInput:
		var err error
		if dst, err = appendLenString(dst, e.Input.Source); err != nil {
			return nil, err
		}
		dst = binary.LittleEndian.AppendUint64(dst, e.Input.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Input.VT))
		idAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		out, id, _, err := msg.AppendPayload(dst, e.Input.Payload)
		if err != nil {
			return nil, fmt.Errorf("wal: input payload: %w", err)
		}
		binary.LittleEndian.PutUint32(out[idAt:], id)
		dst = out
	case entryTrim:
		var err error
		if dst, err = appendLenString(dst, e.Source); err != nil {
			return nil, err
		}
		dst = binary.LittleEndian.AppendUint64(dst, e.Through)
	case entryFault:
		w := appendWriter{b: dst}
		if err := gob.NewEncoder(&w).Encode(e.Fault); err != nil {
			return nil, fmt.Errorf("wal: fault entry: %w", err)
		}
		dst = w.b
	default:
		return nil, fmt.Errorf("wal: unknown entry kind %d", e.Kind)
	}
	return dst, nil
}

// appendWriter adapts append-style encoding to io.Writer for gob-carried
// fault records.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// appendFrame appends e's whole frame — length, CRC, body — to dst. On
// error dst is returned unchanged in length.
func appendFrame(dst []byte, e *fileEntry) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	out, err := appendEntry(dst, e)
	if err != nil {
		return dst[:start], err
	}
	body := out[start+frameHeaderSize:]
	if len(body) > maxFrameSize {
		return out[:start], fmt.Errorf("wal: frame size %d exceeds limit", len(body))
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(out[start+4:], crc32.Checksum(body, castagnoli))
	return out, nil
}

// AppendInput implements Log. Disk first, index second: the record is
// validated, durably framed by its batch's commit, and only then admitted
// to the in-memory index. A failed commit therefore leaves the log exactly
// as it was — the same sequence number can be retried (the source's
// retry-safety contract) instead of tripping the monotonicity check against
// an index entry the disk never got.
func (l *FileLog) AppendInput(rec InputRecord) error {
	return l.append(&fileEntry{Kind: entryInput, Input: rec})
}

// AppendFault implements Log. Same disk-first discipline as AppendInput.
func (l *FileLog) AppendFault(rec FaultRecord) error {
	return l.append(&fileEntry{Kind: entryFault, Fault: rec})
}

// Inputs implements Log.
func (l *FileLog) Inputs(source string, fromSeq uint64) ([]InputRecord, error) {
	return l.mem.Inputs(source, fromSeq)
}

// Faults implements Log.
func (l *FileLog) Faults(component string) ([]FaultRecord, error) {
	return l.mem.Faults(component)
}

// TrimInputs implements Log. The trim is recorded as a log entry (disk
// first, like appends); space is reclaimed only by Compact.
func (l *FileLog) TrimInputs(source string, throughSeq uint64) error {
	return l.append(&fileEntry{Kind: entryTrim, Source: source, Through: throughSeq})
}

// append joins e to the pending batch and returns once that batch is
// committed (see the FileLog doc for the protocol).
func (l *FileLog) append(e *fileEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if e.Kind == entryInput {
		if err := l.validateInput(&e.Input); err != nil {
			return err
		}
	}
	b := l.pending
	if b == nil {
		b = l.newBatch()
		l.pending = b
	}
	var err error
	if b.buf, err = appendFrame(b.buf, e); err != nil {
		return err
	}
	b.recs = append(b.recs, *e)
	b.waiters++
	for !b.committed {
		// ours: b is still pending and no commit is in flight, so it is up
		// to b's own appenders to commit it.
		ours := l.inflight == nil && b == l.pending
		switch {
		case ours && (len(b.recs) >= l.gather || b.expired):
			l.commit(b)
		case ours && !b.holder:
			l.hold(b)
		default:
			// Being committed, held open by another appender, or queued
			// behind a commit whose finisher will wake one of us.
			b.done.Wait()
		}
	}
	err = b.err
	l.release(b)
	return err
}

// validateInput checks rec against the index and against every record
// queued but not yet indexed, so two batches can never put a regressing
// sequence number on disk.
func (l *FileLog) validateInput(rec *InputRecord) error {
	if err := l.mem.validateInput(*rec); err != nil {
		return err
	}
	for _, b := range [2]*batch{l.inflight, l.pending} {
		if b == nil {
			continue
		}
		for i := range b.recs {
			q := &b.recs[i]
			if q.Kind == entryInput && q.Input.Source == rec.Source && rec.Seq <= q.Input.Seq {
				return fmt.Errorf("wal: input seq %d for %q not increasing (queued %d)", rec.Seq, rec.Source, q.Input.Seq)
			}
		}
	}
	return nil
}

// hold parks the caller as b's holder until the gather budget runs out or
// the batch is finished for it, whichever is first. Appenders arriving
// meanwhile join b; the one that completes it commits it.
func (l *FileLog) hold(b *batch) {
	b.holder = true
	b.heldAt = time.Now()
	b.timer.Reset(l.gatherBudget())
	l.mu.Unlock()
	select {
	case <-b.wake:
	case <-b.timer.C:
	}
	b.timer.Stop()
	l.mu.Lock()
	b.expired = true
}

// gatherBudget is how long a batch may be held open for missing appenders.
func (l *FileLog) gatherBudget() time.Duration { return time.Duration(l.syncNs / 4) }

// observeSync folds one fsync's duration into the estimate the gather
// budget derives from, which tracks the disk's usual fsync from below: it
// follows faster samples quickly and slower ones slowly, each counting for
// at most twice the estimate. The sibling a hold waits for returns in CPU
// time, not disk time, so a stretch of fsyncs stuck behind a checkpoint's
// writeback must not stretch the budget: a budget of milliseconds lets
// independent producers that arrive milliseconds apart keep satisfying the
// hold, and every append then waits for the next one.
func (l *FileLog) observeSync(took time.Duration) {
	d := int64(took)
	switch {
	case l.syncNs == 0:
		l.syncNs = d
	case d < l.syncNs:
		l.syncNs -= (l.syncNs - d) / 4
	default:
		l.syncNs += (min(d, 2*l.syncNs) - l.syncNs) / 64
	}
}

// commit writes and syncs b, which must be the pending batch with no commit
// in flight, admits its records to the index, releases its waiters and
// hands the log to the batch that queued behind it. Called and returns with
// l.mu held; the disk work runs unlocked.
func (l *FileLog) commit(b *batch) {
	l.pending, l.inflight = nil, b
	// A gather that ran past its budget did not pay for itself: count it as
	// a lone commit so the hold is dropped until concurrency shows again.
	late := b.holder && (len(b.recs) < l.gather || time.Since(b.heldAt) > l.gatherBudget())
	obs, tear, heal := l.obs, l.shortArmed, l.dirty
	l.shortArmed = false
	l.mu.Unlock()

	syncTook, err := l.writeBatch(b.buf, tear, heal)
	if err == nil && obs != nil {
		obs(batchStats(b.recs, syncTook))
	}

	l.mu.Lock()
	switch {
	case err == nil:
		l.dirty = false
		l.off += int64(len(b.buf))
		l.observeSync(syncTook)
		for i := range b.recs {
			if aerr := l.mem.admit(&b.recs[i]); aerr != nil && err == nil {
				err = aerr
			}
		}
	case tear:
		l.dirty = true
	default:
		// Rewind to the pre-batch offset now; if even that fails, the next
		// commit retries it before writing.
		l.dirty = l.f.Truncate(l.off) != nil
	}
	width := len(b.recs)
	if l.pending != nil {
		width += len(l.pending.recs)
		// One of the queued appenders takes over from here.
		l.pending.done.Signal()
	}
	if late {
		width = 1
	}
	copy(l.widths[:], l.widths[1:])
	l.widths[gatherWindow-1] = width
	l.gather = max(1, slices.Min(l.widths[:]))
	l.inflight = nil
	l.finish(b, err)
}

func batchStats(recs []fileEntry, syncTook time.Duration) BatchStats {
	st := BatchStats{Sync: syncTook}
	for i := range recs {
		switch recs[i].Kind {
		case entryInput:
			st.Inputs++
		case entryFault:
			st.Faults++
		default:
			st.Trims++
		}
	}
	return st
}

// finish publishes b's outcome and releases everyone waiting on it.
func (l *FileLog) finish(b *batch, err error) {
	b.err, b.committed = err, true
	b.done.Broadcast()
	if b.holder {
		select {
		case b.wake <- struct{}{}:
		default:
		}
	}
}

// writeBatch puts one batch on disk at the tracked offset: one WriteAt, one
// Sync. With tear set it instead leaves exactly what a crash mid-write
// would — a valid header and about half of the first frame's body, synced —
// and fails with ErrShortWrite.
func (l *FileLog) writeBatch(buf []byte, tear, heal bool) (syncTook time.Duration, err error) {
	if heal {
		if err := l.f.Truncate(l.off); err != nil {
			return 0, fmt.Errorf("wal: heal torn frame: %w", err)
		}
	}
	if tear {
		// Best effort: the commit fails whatever these two return.
		first := int(binary.BigEndian.Uint32(buf[:4]))
		_, _ = l.f.WriteAt(buf[:frameHeaderSize+first/2], l.off)
		_ = l.f.Sync()
		return 0, fmt.Errorf("wal: append: %w", ErrShortWrite)
	}
	if _, err := l.f.WriteAt(buf, l.off); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: sync: %w", err)
	}
	return time.Since(t0), nil
}

// maxRecycledBatchBytes bounds the frame buffer a recycled batch keeps.
const maxRecycledBatchBytes = 1 << 20

func (l *FileLog) newBatch() *batch {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	b := &batch{wake: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
	b.timer.Stop()
	b.done.L = &l.mu
	return b
}

// release drops one reference to b; the last one out resets it and returns
// it to the free list.
func (l *FileLog) release(b *batch) {
	if b.waiters--; b.waiters > 0 {
		return
	}
	select {
	case <-b.wake:
	default:
	}
	clear(b.recs)
	b.recs = b.recs[:0]
	b.buf = b.buf[:0]
	if cap(b.buf) > maxRecycledBatchBytes {
		b.buf = nil
	}
	b.err = nil
	b.committed, b.holder, b.expired = false, false, false
	l.free = append(l.free, b)
}

// quiesce waits, with l.mu held, until no commit is in flight.
func (l *FileLog) quiesce() {
	for l.inflight != nil {
		b := l.inflight
		b.waiters++
		for !b.committed {
			b.done.Wait()
		}
		l.release(b)
	}
}

// Compact rewrites the log file retaining only live records, reclaiming
// the space of trimmed inputs. The replacement is written and fsynced
// beside the log, renamed over it, and the directory fsynced, so a crash
// leaves either the old file or the new one — never the old one missing
// later acknowledged appends. Appends wait while it runs.
func (l *FileLog) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.quiesce()
	if l.closed {
		return errLogClosed
	}
	tmpPath := l.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	size, err := l.writeLive(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		// The handle stays valid across the rename and becomes the log's, so
		// a failed rename leaves the old file open and in use.
		err = os.Rename(tmpPath, l.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact: %w", err)
	}
	old := l.f
	l.f, l.off, l.dirty = tmp, size, false
	old.Close() // superseded; nothing of it is referenced any more
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		return fmt.Errorf("wal: compact: sync directory: %w", err)
	}
	return nil
}

// writeLive writes every indexed record to w — per source its trim
// watermark and retained inputs, then faults — and returns the bytes
// written.
func (l *FileLog) writeLive(w io.Writer) (int64, error) {
	l.mem.mu.Lock()
	defer l.mem.mu.Unlock()
	sources := make([]string, 0, len(l.mem.inputs))
	for s := range l.mem.inputs {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	bw := bufio.NewWriter(w)
	var size int64
	var frame []byte
	put := func(e *fileEntry) error {
		var err error
		if frame, err = appendFrame(frame[:0], e); err != nil {
			return err
		}
		size += int64(len(frame))
		_, err = bw.Write(frame)
		return err
	}
	for _, s := range sources {
		if through := l.mem.trimmed[s]; through > 0 {
			if err := put(&fileEntry{Kind: entryTrim, Source: s, Through: through}); err != nil {
				return 0, err
			}
		}
		if recs := l.mem.inputs[s]; recs != nil {
			for i := range recs.Len() {
				if err := put(&fileEntry{Kind: entryInput, Input: *recs.At(i)}); err != nil {
					return 0, err
				}
			}
		}
	}
	for _, f := range l.mem.faults {
		if err := put(&fileEntry{Kind: entryFault, Fault: f}); err != nil {
			return 0, err
		}
	}
	return size, bw.Flush()
}

// Close implements Log. Appenders still queued get errLogClosed; a commit
// already in flight finishes first.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if b := l.pending; b != nil {
		l.pending = nil
		l.finish(b, errLogClosed)
	}
	l.quiesce()
	if err := l.mem.Close(); err != nil {
		return err
	}
	return l.f.Close()
}

// ErrShortWrite reports a commit that physically tore mid-frame (the
// injected power-loss fault). The frame is garbage on disk; the log heals
// it — by truncation — before the next write, and open-time truncation
// discards it if the process dies first.
var ErrShortWrite = errors.New("wal: short write (torn frame)")

// ArmShortWrite makes the next commit tear mid-frame: the header and a
// partial body of its first record reach the disk, then the whole batch
// fails. This simulates power loss during the write itself — the one
// failure open-time truncation exists for — while keeping the log usable
// for retries.
func (l *FileLog) ArmShortWrite() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.shortArmed = true
}
