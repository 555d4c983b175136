package convert

import (
	"socyield/internal/obs"
)

// Option configures optional instrumentation of a conversion run; the
// zero configuration costs nothing (the hook no-ops when nil).
type Option func(*options)

type options struct {
	state *obs.BuildState
}

// WithBuildState attaches a live progress tracker: the converter
// counts converted entry nodes, so /v1/builds and the flight recorder
// can report progress mid-conversion.
func WithBuildState(b *obs.BuildState) Option {
	return func(o *options) { o.state = b }
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
