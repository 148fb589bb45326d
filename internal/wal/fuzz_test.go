package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"testing"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
)

// FuzzWALFrame drives hostile bytes through the open path: readFrame, the
// entry decoder and scanFrames, both as a log and, framed with a valid CRC,
// as one frame's body. The invariants: never panic, never consume more
// bytes than the log holds, and every frame the decoder accepts
// re-encodes through appendFrame. A binary input or trim frame with a
// codec payload must come back byte for byte; a fault (gob inside the
// binary envelope), a gob-fallback payload or a legacy gob body has no
// canonical bytes, so its re-encoding must instead be a fixed point.
func FuzzWALFrame(f *testing.F) {
	// Seed corpus: one appendFrame output per entry kind plus one legacy gob
	// body. The seeds also run under plain `go test`.
	for _, e := range []fileEntry{
		{Kind: entryInput, Input: InputRecord{Source: "src", Seq: 7, VT: 1234, Payload: "hello"}},
		{Kind: entryFault, Fault: FaultRecord{Component: "c",
			Fault:   estimator.Fault{EffectiveVT: 99, Coeffs: []float64{61827}},
			Silence: &SilenceFault{Config: silence.Config{Strategy: silence.Aggressive}, EffectiveVT: 100}}},
		{Kind: entryTrim, Source: "src", Through: 6},
	} {
		frame, err := appendFrame(nil, &e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(fileEntry{Kind: entryInput, Input: InputRecord{Source: "old", Seq: 1, Payload: 5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(frameOf(legacy.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, good, err := scanFrames(bytes.NewReader(data), int64(len(data))); err == nil && good > int64(len(data)) {
			t.Fatalf("scan consumed %d of %d bytes", good, len(data))
		}
		checkFrames(t, data)
		// The CRC hides most mutations from the decoder, so the bytes also
		// go through it as one frame's body.
		checkFrames(t, frameOf(data))
	})
}

// checkFrames re-encodes every frame of data the decoder accepts, up to the
// first it does not.
func checkFrames(t *testing.T, data []byte) {
	for off := int64(0); ; {
		left := int64(len(data)) - off
		body, n, err := readFrame(bytes.NewReader(data[off:]), left)
		if err != nil {
			return
		}
		if n > left {
			t.Fatalf("frame at %d consumed %d of %d bytes", off, n, left)
		}
		e, err := decodeEntry(body)
		if err != nil {
			return
		}
		again, err := appendFrame(nil, &e)
		if err != nil {
			t.Fatalf("re-encode of accepted %+v: %v", e, err)
		}
		if body[0] == walMagic && e.Kind != entryFault && !fallback(&e) {
			if !bytes.Equal(again, data[off:off+n]) {
				t.Fatalf("frame at %d re-encodes differently:\n got %x\nwant %x", off, again, data[off:off+n])
			}
		} else if twice := reencode(t, again); !bytes.Equal(twice, again) {
			t.Fatalf("re-encoding of frame at %d is not a fixed point:\n 1st %x\n 2nd %x", off, again, twice)
		}
		off += n
	}
}

// frameOf wraps body in a frame header.
func frameOf(body []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// fallback reports whether e carries a payload the gob fallback encodes.
func fallback(e *fileEntry) bool {
	if e.Kind != entryInput {
		return false
	}
	_, _, fb, _ := msg.AppendPayload(nil, e.Input.Payload)
	return fb
}

// reencode decodes one whole frame and encodes it again.
func reencode(t *testing.T, frame []byte) []byte {
	t.Helper()
	body, _, err := readFrame(bytes.NewReader(frame), int64(len(frame)))
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	e, err := decodeEntry(body)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	out, err := appendFrame(nil, &e)
	if err != nil {
		t.Fatalf("second re-encode: %v", err)
	}
	return out
}
