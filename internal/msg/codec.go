package msg

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
)

// Envelopes travel as binary frames (binary.go): fixed little-endian
// header, registered payload types by numeric ID, pooled buffers, zero
// steady-state allocations. encoding/gob survives here only as the
// self-describing payload fallback inside a frame, for payload types
// without a registered binary codec. Such types must be registered once
// with RegisterPayload; RegisterBinaryPayload buys a type out of the
// fallback entirely.

var registerMu sync.Mutex

// RegisterPayload registers a concrete payload type with the gob codec.
// It tolerates duplicate registration of the identical type, which gob
// itself treats as an error only for conflicting registrations.
func RegisterPayload(v any) (err error) {
	registerMu.Lock()
	defer registerMu.Unlock()
	defer func() {
		// gob.Register panics on conflicting duplicate names; surface that
		// as an error so library callers can handle it.
		if r := recover(); r != nil {
			err = fmt.Errorf("msg: register payload: %v", r)
		}
	}()
	gob.Register(v)
	return nil
}

// gobBox wraps a payload for the self-describing fallback: gob can encode
// an interface field (recording the concrete type's registered name) but
// not a bare interface value.
type gobBox struct{ V any }

// fallbackEncodes and fallbackDecodes count envelopes whose payload rode
// the gob fallback instead of a registered binary codec, process-wide.
// Per-engine transport fallbacks are additionally metered on the
// connection (tart_codec_fallbacks_total).
var (
	fallbackEncodes atomic.Uint64
	fallbackDecodes atomic.Uint64
)

// FallbackCounts reports the process-wide gob-fallback encode and decode
// totals — the envelopes still paying reflective codec prices. A nonzero
// rate under steady load means a hot payload type is missing a
// RegisterBinaryPayload registration.
func FallbackCounts() (encodes, decodes uint64) {
	return fallbackEncodes.Load(), fallbackDecodes.Load()
}

// appendWriter adapts append-style encoding to io.Writer for the gob
// fallback.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// appendGobPayload appends a self-contained gob encoding of v to dst.
func appendGobPayload(dst []byte, v any) ([]byte, error) {
	fallbackEncodes.Add(1)
	w := appendWriter{b: dst}
	if err := gob.NewEncoder(&w).Encode(gobBox{V: v}); err != nil {
		return dst, fmt.Errorf("msg: gob-fallback payload encode: %w", err)
	}
	return w.b, nil
}

// decodeGobPayload decodes a payload produced by appendGobPayload.
func decodeGobPayload(data []byte) (any, error) {
	fallbackDecodes.Add(1)
	var box gobBox
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&box); err != nil {
		return nil, fmt.Errorf("msg: gob-fallback payload decode: %w", err)
	}
	return box.V, nil
}
