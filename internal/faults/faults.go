// Package faults is the one door through which fault injection reaches a
// cluster. Link and disk faults are oracles, not middleware, so the root
// package exports neither: it sets WithFaults in an init, and the chaos
// oracle and the root tests call it. The door sits here, not in
// internal/chaos, because internal/chaos imports the root package.
package faults

import (
	"repro/internal/transport"
	"repro/internal/wal"
)

// WithFaults returns a tart.ClusterOption, typed any because this package
// cannot import the root package, that threads nc into every inter-engine
// connection and arms inj in front of every engine's stable log. Either
// may be nil. The root package sets it in an init.
var WithFaults func(nc *transport.Netem, inj *wal.Injector) any
