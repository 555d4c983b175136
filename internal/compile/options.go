package compile

import (
	"socyield/internal/obs"
)

// Option configures optional instrumentation of a compile run. The
// zero configuration is free: both hooks are nil-receiver no-ops, so
// un-instrumented callers pay only nil checks.
type Option func(*options)

type options struct {
	state  *obs.BuildState
	tracer *obs.Tracer
}

// WithBuildState attaches a live progress tracker: the compiler
// publishes the gate total once the work is known and counts finished
// gates and live nodes as it goes, so /v1/builds and the flight
// recorder can report gates-done/total mid-compile.
func WithBuildState(b *obs.BuildState) Option {
	return func(o *options) { o.state = b }
}

// WithTracer attaches a flight-recorder tracer: each compiled gate
// becomes one timed event in the Chrome trace export, named by its kind
// and fan-in ("and/64") and carrying the BDD nodes it created and the
// live node count when it finished as args "created" and "live".
func WithTracer(t *obs.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
