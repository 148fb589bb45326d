package tart

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/silence"
	"repro/internal/topo"
	"repro/internal/vt"
)

// App assembles an application: components, wiring, external endpoints,
// and placement. Build order is significant — wire IDs (and therefore the
// deterministic tie-breaking order) follow Connect order — so assemble the
// app in plain straight-line code.
type App struct {
	b     *topo.Builder
	specs map[string]*componentSpec
	errs  []error
}

type componentSpec struct {
	comp       Component
	state      any
	est        estimator.Estimator
	silenceCfg silence.Config
	extract    FeatureFunc
	calCfg     *estimator.Config
	probeRetry time.Duration
}

// NewApp returns an empty application.
func NewApp() *App {
	return &App{
		b:     topo.NewBuilder(),
		specs: make(map[string]*componentSpec),
	}
}

// ComponentOption configures one registered component.
type ComponentOption interface {
	apply(*componentSpec)
}

type componentOptionFunc func(*componentSpec)

func (f componentOptionFunc) apply(s *componentSpec) { f(s) }

// WithConstantCost attaches the paper's "dumb" estimator: a fixed compute
// cost per message. This is the simplest correct estimator; performance
// improves with estimators that track real time more closely.
func WithConstantCost(d time.Duration) ComponentOption {
	return componentOptionFunc(func(s *componentSpec) {
		s.est = estimator.Constant{C: vt.FromDuration(d)}
	})
}

// WithLinearCost attaches the paper's "smart" estimator: cost = Σ βᵢ·ξᵢ
// over deterministic message features (e.g. loop iteration counts), with a
// floor of min. Coefficients are in nanoseconds per feature unit.
func WithLinearCost(extract FeatureFunc, coeffs []float64, min time.Duration) ComponentOption {
	return componentOptionFunc(func(s *componentSpec) {
		s.est = estimator.NewLinear(extract, coeffs, vt.FromDuration(min))
		s.extract = extract
	})
}

// WithCalibration upgrades a linear estimator to a self-calibrating one:
// the runtime measures real handler costs, refits the coefficients by
// linear regression, and applies each change through a logged determinism
// fault so replay stays exact (§II.G.4). minSamples is the number of
// observations before the first refit (the paper suggests a few hundred;
// 0 uses the default 300).
func WithCalibration(minSamples int) ComponentOption {
	return componentOptionFunc(func(s *componentSpec) {
		s.calCfg = &estimator.Config{MinSamples: minSamples}
	})
}

// WithSilence selects the component's silence-propagation strategy.
func WithSilence(strategy SilenceStrategy) ComponentOption {
	return componentOptionFunc(func(s *componentSpec) { s.silenceCfg.Strategy = strategy })
}

// WithState nominates the object captured by checkpoints when it is not
// the component itself (the default is the Component value, captured
// transparently via gob over its exported fields, or via its Snapshotter
// implementation).
func WithState(state any) ComponentOption {
	return componentOptionFunc(func(s *componentSpec) { s.state = state })
}

// WithProbeRetry overrides how long a blocked component waits before
// re-issuing curiosity probes.
func WithProbeRetry(d time.Duration) ComponentOption {
	return componentOptionFunc(func(s *componentSpec) { s.probeRetry = d })
}

// Register adds a component. The default estimator is a 50 µs constant
// cost; the default silence strategy is Curiosity.
func (a *App) Register(name string, c Component, opts ...ComponentOption) {
	if _, dup := a.specs[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("tart: component %q registered twice", name))
		return
	}
	a.b.AddComponent(name)
	spec := &componentSpec{
		comp:       c,
		state:      c,
		est:        estimator.Constant{C: vt.FromDuration(50 * time.Microsecond)},
		silenceCfg: silence.Config{Strategy: silence.Curiosity},
	}
	for _, o := range opts {
		o.apply(spec)
	}
	a.specs[name] = spec
}

// Connect wires `from`'s output port to `to`'s input port with one-way
// (send) semantics.
func (a *App) Connect(from, fromPort, to, toPort string) { a.b.Connect(from, fromPort, to, toPort) }

// ConnectCall wires `from`'s call port to `to`'s input port with two-way
// (call) semantics. The call graph must be acyclic.
func (a *App) ConnectCall(from, fromPort, to, toPort string) {
	a.b.ConnectCall(from, fromPort, to, toPort)
}

// SourceInto declares an external producer feeding the component's input
// port. External inputs are the only messages TART ever logs.
func (a *App) SourceInto(source, to, toPort string) { a.b.AddSource(source, to, toPort) }

// SinkFrom declares an external consumer fed by the component's output
// port.
func (a *App) SinkFrom(sink, from, fromPort string) { a.b.AddSink(sink, from, fromPort) }

// Place assigns a component to a named engine.
func (a *App) Place(component, engineName string) { a.b.Place(component, engineName) }

// PlaceAll assigns every registered component to one engine.
func (a *App) PlaceAll(engineName string) { a.b.PlaceAll(engineName) }

// build finalizes the topology and the per-component engine specs.
func (a *App) build() (*topo.Topology, map[string]engine.ComponentSpec, error) {
	if len(a.errs) > 0 {
		return nil, nil, errors.Join(a.errs...)
	}
	tp, err := a.b.Build()
	if err != nil {
		return nil, nil, err
	}
	specs := make(map[string]engine.ComponentSpec, len(a.specs))
	for name, s := range a.specs {
		est := s.est
		if s.calCfg != nil {
			lin, ok := est.(*estimator.Linear)
			if !ok {
				return nil, nil, fmt.Errorf("tart: component %q: WithCalibration requires WithLinearCost", name)
			}
			est = estimator.NewCalibrated(lin, *s.calCfg)
		}
		specs[name] = engine.ComponentSpec{
			Handler:    s.comp,
			State:      s.state,
			Est:        est,
			Silence:    s.silenceCfg,
			Extract:    s.extract,
			ProbeRetry: s.probeRetry,
		}
	}
	return tp, specs, nil
}
