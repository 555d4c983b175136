// Package cliutil holds the flag plumbing shared by the socyield
// command-line tools (yieldsoc, experiments, yieldd): loading a system
// from a benchmark name or an ftdsl file, parsing comma-separated
// float lists, dumping a metrics registry, running the flight recorder
// (-trace-out), and serving the pprof debug endpoint.
package cliutil

import (
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // register /debug/pprof on DefaultServeMux
	"os"
	"strconv"
	"strings"

	"socyield/internal/benchmarks"
	"socyield/internal/ftdsl"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

// LoadSystem resolves a system from either a benchmark name (MS<n>,
// ESEN<n>x<m>) or an ftdsl description file. Exactly one of the two
// must be given.
func LoadSystem(bench, file string) (*yield.System, error) {
	switch {
	case bench != "" && file != "":
		return nil, fmt.Errorf("give either -bench or -f, not both")
	case bench != "":
		return benchmarks.ByName(bench)
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return ftdsl.Parse(string(src))
	default:
		return nil, fmt.Errorf("give -bench <name> or -f <file> (see -h)")
	}
}

// ParseFloats parses a comma-separated list of floats ("0.5, 1, 2").
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// WriteMetrics dumps the registry snapshot as JSON to path ("-" =
// stdout).
func WriteMetrics(rec *obs.Registry, path string) error {
	return writeTo(path, rec.WriteJSON)
}

// FlightRecorder records a CLI run for -trace-out: a Tracer collecting
// each build's phase events and per-gate events, written on Close as
// one Chrome trace-event file (load it at ui.perfetto.dev or
// chrome://tracing).
//
// A nil *FlightRecorder is valid and inert, matching the obs
// discipline: StartFlightRecorder returns nil when no trace was
// requested, and Tracer/Close on nil are no-ops.
type FlightRecorder struct {
	tracer   *obs.Tracer
	traceOut string
}

// StartFlightRecorder returns a recorder writing to traceOut, or nil
// when traceOut is empty.
func StartFlightRecorder(traceOut string) *FlightRecorder {
	if traceOut == "" {
		return nil
	}
	return &FlightRecorder{tracer: obs.NewTracer(0), traceOut: traceOut}
}

// Tracer returns the tracer to thread into the pipeline (nil when
// tracing was not requested — the pipeline treats that as "don't
// record").
func (f *FlightRecorder) Tracer() *obs.Tracer {
	if f == nil {
		return nil
	}
	return f.tracer
}

// Close writes the trace. Call it after the instrumented work finishes:
// a build's phase events are recorded as its phases end.
func (f *FlightRecorder) Close() error {
	if f == nil {
		return nil
	}
	err := writeTo(f.traceOut, func(w io.Writer) error {
		return obs.WriteChromeTrace(w, f.tracer)
	})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// writeTo streams write into path ("-" = stdout).
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ServeDebug starts a background HTTP server on addr exposing
// /debug/pprof for the life of the process. Startup errors are reported
// to stderr (prefixed with tool), not returned: the debug endpoint is
// an observer, never a reason to fail the run.
func ServeDebug(tool, addr string) {
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", tool, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", addr)
}
