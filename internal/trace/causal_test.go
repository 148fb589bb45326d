package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/msg"
)

func TestCausalChainFiltersAndOrders(t *testing.T) {
	o1 := msg.NewOrigin(0, 1)
	o2 := msg.NewOrigin(0, 2)
	events := []Event{
		{Seq: 1, Kind: EvDeliver, VT: 300, Hops: 1, Origin: o1, Component: "relay"},
		{Seq: 2, Kind: EvSend, VT: 200, Hops: 1, Origin: o1, Component: "count"},
		{Seq: 3, Kind: EvDeliver, VT: 200, Hops: 0, Origin: o1, Component: "count"},
		{Seq: 4, Kind: EvSourceEmit, VT: 100, Hops: 0, Origin: o1},
		{Seq: 5, Kind: EvSourceEmit, VT: 150, Hops: 0, Origin: o2},
		{Seq: 6, Kind: EvCheckpoint, VT: 400}, // origin-less control event
	}
	chain := CausalChain(events, o1)
	if len(chain) != 4 {
		t.Fatalf("chain length = %d, want 4", len(chain))
	}
	wantSeqs := []uint64{4, 3, 2, 1} // VT asc, then hops asc
	for i, want := range wantSeqs {
		if chain[i].Seq != want {
			t.Errorf("chain[%d].Seq = %d, want %d", i, chain[i].Seq, want)
		}
	}
	if got := CausalChain(events, 0); got != nil {
		t.Errorf("zero origin matched %d events; want none", len(got))
	}
}

func TestOrigins(t *testing.T) {
	o1, o2 := msg.NewOrigin(0, 1), msg.NewOrigin(2, 1)
	events := []Event{
		{Origin: o1}, {Origin: o1}, {Origin: o2}, {}, // one origin-less
	}
	got := Origins(events)
	want := []OriginCount{{Origin: o1, Events: 2}, {Origin: o2, Events: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Origins = %+v, want %+v", got, want)
	}
}

func TestReadEventsBothFormats(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: EvSourceEmit, VT: 100, Origin: msg.NewOrigin(0, 1)},
		{Seq: 2, Kind: EvDeliver, VT: 100, Component: "count", Origin: msg.NewOrigin(0, 1)},
	}

	// JSONL, as the flight-dump file is written.
	rec := NewRecorder(0)
	for _, e := range events {
		ev := e
		ev.Seq = 0 // Record assigns sequence numbers
		rec.Record(ev)
	}
	var jsonl bytes.Buffer
	if err := rec.WriteDump(&jsonl, "e"); err != nil {
		t.Fatal(err)
	}
	fromLines, err := ReadEvents(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromLines) != 2 || fromLines[1].Component != "count" {
		t.Errorf("JSONL read = %+v", fromLines)
	}
	if fromLines[0].Origin != events[0].Origin {
		t.Errorf("origin lost in JSONL round trip: %v", fromLines[0].Origin)
	}

	// Indented JSON array with leading whitespace, as /trace serves it.
	array := `
	[
	  {"seq":1,"kind":"source-emit","vt":100,"origin":"w0#1"},
	  {"seq":2,"kind":"deliver","vt":100,"component":"count","origin":"w0#1"}
	]`
	fromArray, err := ReadEvents(strings.NewReader(array))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromArray) != 2 || fromArray[0].Kind != EvSourceEmit {
		t.Errorf("array read = %+v", fromArray)
	}
	if fromArray[1].Origin != msg.NewOrigin(0, 1) {
		t.Errorf("array origin = %v", fromArray[1].Origin)
	}

	// Empty input is not an error.
	if evs, err := ReadEvents(strings.NewReader("")); err != nil || evs != nil {
		t.Errorf("empty input = %v, %v", evs, err)
	}
}
