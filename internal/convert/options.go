package convert

import (
	"socyield/internal/obs"
)

// Option configures optional instrumentation of a conversion run; the
// zero configuration costs nothing (the hook no-ops when nil).
type Option func(*options)

type options struct {
	state         *obs.BuildState
	beforeReserve func(bytes int)
}

// WithBuildState attaches a live progress tracker: the converter
// counts converted entry nodes, so /v1/builds and the flight recorder
// can report progress mid-conversion.
func WithBuildState(b *obs.BuildState) Option {
	return func(o *options) { o.state = b }
}

// BeforeReserve registers fn to run once per conversion, after the
// sizing walk has bounded the ROMDD and before its arena is reserved,
// with the bytes the reservation will allocate
// (mdd.Manager.ReserveBytes). A build uses it to decide, knowing what
// the conversion is about to take, whether to collect the garbage it
// could reuse first.
func BeforeReserve(fn func(bytes int)) Option {
	return func(o *options) { o.beforeReserve = fn }
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
