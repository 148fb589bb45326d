// Package checkpoint implements TART's state capture and soft-checkpoint
// machinery (paper §II.F.2).
//
// Components keep state in ordinary fields — the "transparent" programming
// model. The engine intermittently captures each component's state, pairs
// it with the scheduler's deterministic cursors, and ships the result
// asynchronously to a passive replica. Large structures can opt into
// incremental checkpointing through the Map container (the paper's
// "auxiliary structure" holding updates since the last checkpoint), in
// which case only deltas travel between full snapshots.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
)

// Snapshotter lets a component take explicit control of its state capture.
// Components that don't implement it are captured automatically via gob
// over their exported fields (the closest Go equivalent to the paper's
// bytecode augmentation; see Capture).
type Snapshotter interface {
	// Snapshot serializes the component's full state.
	Snapshot() ([]byte, error)
	// Restore reinstates a state produced by Snapshot.
	Restore(data []byte) error
}

// DeltaSnapshotter extends Snapshotter with incremental checkpointing:
// Delta returns only the changes since the previous Snapshot/Delta call.
type DeltaSnapshotter interface {
	Snapshotter
	// Delta serializes the changes since the last Snapshot or Delta. ok is
	// false when a full snapshot is required instead (e.g. first capture).
	Delta() (data []byte, ok bool, err error)
	// ApplyDelta applies a delta to the current state.
	ApplyDelta(data []byte) error
}

// Stager is a DeltaSnapshotter that can split a capture in two: a copy
// taken while the owning component is quiescent, and an encode of that copy
// that no longer needs the component to hold still. Map implements it; the
// engine's checkpoint then stalls a delivery loop for a copy of the touched
// entries instead of for their serialization.
type Stager interface {
	DeltaSnapshotter
	// Stage copies the full state, or with delta only the changes since
	// the last capture, and returns the function that encodes the copy.
	// Like Snapshot and Delta it resets the change tracking.
	Stage(delta bool) (encode func() ([]byte, error))
}

// Stage captures a component's state at a quiescent moment: full, or with
// delta set only the changes since the last capture when the component
// tracks them (kind reports which it was). The returned encode produces
// the capture's bytes and may be called after the component has resumed.
// For a Stager only a copy happens inside Stage; any other component is
// serialized here, by Capture or CaptureDelta, and encode just hands the
// bytes over.
func Stage(comp any, delta bool) (kind HandlerKind, encode func() ([]byte, error), err error) {
	kindOf := func(full bool) HandlerKind {
		if full {
			return HandlerFull
		}
		return HandlerDelta
	}
	if s, ok := comp.(Stager); ok {
		return kindOf(!delta), s.Stage(delta), nil
	}
	var data []byte
	full := true
	if delta {
		data, full, err = CaptureDelta(comp)
	} else {
		data, err = Capture(comp)
	}
	if err != nil {
		return 0, nil, err
	}
	return kindOf(full), func() ([]byte, error) { return data, nil }, nil
}

// Capture serializes a component's state. Components implementing
// Snapshotter are asked directly; anything else is gob-encoded, which
// captures its exported fields transparently.
func Capture(comp any) ([]byte, error) {
	if s, ok := comp.(Snapshotter); ok {
		data, err := s.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: snapshot: %w", err)
		}
		return data, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(comp); err != nil {
		return nil, fmt.Errorf("checkpoint: auto-capture %T: %w", comp, err)
	}
	return buf.Bytes(), nil
}

// Reinstate restores a component's state captured by Capture. The target
// must be the same concrete type the state was captured from. For the
// transparent (gob) path the target is zeroed first: gob decoding merges
// into existing maps and leaves untouched fields alone, which would leak
// post-checkpoint state into a restore performed on a previously used
// object.
func Reinstate(comp any, data []byte) error {
	if s, ok := comp.(Snapshotter); ok {
		if err := s.Restore(data); err != nil {
			return fmt.Errorf("checkpoint: restore: %w", err)
		}
		return nil
	}
	zeroPointee(comp)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(comp); err != nil {
		return fmt.Errorf("checkpoint: auto-restore %T: %w", comp, err)
	}
	return nil
}

// zeroPointee resets *comp to its zero value when comp is a non-nil
// pointer.
func zeroPointee(comp any) {
	v := reflect.ValueOf(comp)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return
	}
	elem := v.Elem()
	if elem.CanSet() {
		elem.Set(reflect.Zero(elem.Type()))
	}
}

// CaptureDelta serializes only the changes since the last capture, when the
// component supports it. full reports whether the returned data is a full
// snapshot (delta unavailable or unsupported).
func CaptureDelta(comp any) (data []byte, full bool, err error) {
	if d, ok := comp.(DeltaSnapshotter); ok {
		delta, ok, err := d.Delta()
		if err != nil {
			return nil, false, fmt.Errorf("checkpoint: delta: %w", err)
		}
		if ok {
			return delta, false, nil
		}
	}
	data, err = Capture(comp)
	return data, true, err
}

// ApplyDelta applies an incremental capture to a component.
func ApplyDelta(comp any, data []byte) error {
	d, ok := comp.(DeltaSnapshotter)
	if !ok {
		return fmt.Errorf("checkpoint: %T does not support incremental checkpoints", comp)
	}
	if err := d.ApplyDelta(data); err != nil {
		return fmt.Errorf("checkpoint: apply delta: %w", err)
	}
	return nil
}
