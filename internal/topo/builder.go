package topo

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/msg"
	"repro/internal/vt"
)

// Default deterministic communication-delay estimates, in ticks (ns).
// Local wires stay inside one engine (negligible delay, per the paper's
// worked example); remote wires cross engines.
const (
	DefaultLocalDelay  vt.Ticks = 1_000   // 1 µs
	DefaultRemoteDelay vt.Ticks = 200_000 // 200 µs
)

// Builder assembles a Topology. The assembly order of AddComponent and
// Connect calls determines component and wire IDs, so applications must
// build their topology in a deterministic order (normal straight-line setup
// code does this naturally).
type Builder struct {
	t         *Topology
	placement map[string]string // component name -> engine
	errs      []error
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{
		t: &Topology{
			byName:  make(map[string]ComponentID),
			sources: make(map[string]*Source),
			sinks:   make(map[string]*Sink),
		},
		placement: make(map[string]string),
	}
}

// AddComponent registers a component by name and returns its ID.
func (b *Builder) AddComponent(name string) ComponentID {
	if name == "" {
		b.errs = append(b.errs, errors.New("topo: component name must not be empty"))
		return -1
	}
	if _, dup := b.t.byName[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topo: duplicate component name %q", name))
		return b.t.byName[name]
	}
	id := ComponentID(len(b.t.comps))
	b.t.comps = append(b.t.comps, &Component{
		ID:      id,
		Name:    name,
		Outputs: make(map[string]msg.WireID),
	})
	b.t.byName[name] = id
	return id
}

// Connect wires the named output port of component `from` to the named
// input port of component `to` with one-way (send) semantics.
func (b *Builder) Connect(from, fromPort, to, toPort string) {
	fc, tc := b.lookup(from), b.lookup(to)
	if fc == nil || tc == nil {
		return
	}
	w := b.addWire(WireSend, fc.ID, fromPort, tc.ID, toPort)
	if w == nil {
		return
	}
	b.bindOutput(fc, fromPort, w.ID)
	tc.Inputs = append(tc.Inputs, w.ID)
}

// ConnectCall wires the named call port of `from` to the named input port
// of `to` with two-way (call) semantics: a request wire and a paired reply
// wire are created.
func (b *Builder) ConnectCall(from, fromPort, to, toPort string) {
	fc, tc := b.lookup(from), b.lookup(to)
	if fc == nil || tc == nil {
		return
	}
	req := b.addWire(WireCallRequest, fc.ID, fromPort, tc.ID, toPort)
	if req == nil {
		return
	}
	rep := b.addWire(WireCallReply, tc.ID, replyPortName(fromPort, from), fc.ID, "")
	req.Peer = rep.ID
	rep.Peer = req.ID
	b.bindOutput(fc, fromPort, req.ID)
	tc.Inputs = append(tc.Inputs, req.ID)
	fc.ReplyInputs = append(fc.ReplyInputs, rep.ID)
}

// AddSource declares an external producer feeding the named input port of
// the component.
func (b *Builder) AddSource(name, to, toPort string) {
	if _, dup := b.t.sources[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topo: duplicate source name %q", name))
		return
	}
	tc := b.lookup(to)
	if tc == nil {
		return
	}
	w := b.addWire(WireSource, External, "", tc.ID, toPort)
	if w == nil {
		return
	}
	tc.Inputs = append(tc.Inputs, w.ID)
	b.t.sources[name] = &Source{Name: name, Wire: w.ID}
}

// AddSink declares an external consumer fed by the named output port of the
// component.
func (b *Builder) AddSink(name, from, fromPort string) {
	if _, dup := b.t.sinks[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topo: duplicate sink name %q", name))
		return
	}
	fc := b.lookup(from)
	if fc == nil {
		return
	}
	w := b.addWire(WireSink, fc.ID, fromPort, External, "")
	if w == nil {
		return
	}
	b.bindOutput(fc, fromPort, w.ID)
	b.t.sinks[name] = &Sink{Name: name, Wire: w.ID}
}

// Place assigns a component to an engine. Every component must be placed
// before Build.
func (b *Builder) Place(component, engine string) {
	if engine == "" {
		b.errs = append(b.errs, fmt.Errorf("topo: empty engine name for component %q", component))
		return
	}
	if b.lookup(component) == nil {
		return
	}
	b.placement[component] = engine
}

// PlaceAll assigns every component registered so far to the engine.
func (b *Builder) PlaceAll(engine string) {
	for name := range b.t.byName {
		b.placement[name] = engine
	}
}

// Build finalizes the topology: applies placement, computes default wire
// delays (local vs remote), and validates structure. The builder must not
// be reused afterwards.
func (b *Builder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	t := b.t
	for name, engine := range b.placement {
		t.comps[t.byName[name]].Engine = engine
	}
	engineSet := make(map[string]bool)
	for _, c := range t.comps {
		if c.Engine != "" {
			engineSet[c.Engine] = true
		}
	}
	t.engines = t.engines[:0]
	for e := range engineSet {
		t.engines = append(t.engines, e)
	}
	sort.Strings(t.engines)

	for _, w := range t.wires {
		if t.IsLocal(w.ID) {
			w.Delay = DefaultLocalDelay
		} else {
			w.Delay = DefaultRemoteDelay
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func (b *Builder) lookup(name string) *Component {
	id, ok := b.t.byName[name]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("topo: unknown component %q", name))
		return nil
	}
	return b.t.comps[id]
}

func (b *Builder) addWire(kind WireKind, from ComponentID, fromPort string, to ComponentID, toPort string) *Wire {
	w := &Wire{
		ID:       msg.WireID(len(b.t.wires)),
		Kind:     kind,
		From:     from,
		FromPort: fromPort,
		To:       to,
		ToPort:   toPort,
		Peer:     -1,
	}
	b.t.wires = append(b.t.wires, w)
	return w
}

func (b *Builder) bindOutput(c *Component, port string, wid msg.WireID) {
	if _, dup := c.Outputs[port]; dup {
		b.errs = append(b.errs, fmt.Errorf("topo: output port %s.%s wired twice (one output port feeds one wire; use distinct ports for fan-out)", c.Name, port))
		return
	}
	if port == "" {
		b.errs = append(b.errs, fmt.Errorf("topo: empty output port name on component %q", c.Name))
		return
	}
	c.Outputs[port] = wid
}

func replyPortName(callPort, caller string) string {
	return "~reply:" + caller + ":" + callPort
}
