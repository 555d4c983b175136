package yield

import (
	"encoding/binary"
	"errors"
	"math"
	"time"

	"socyield/internal/defects"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/par"
)

// SweepPoint is one evaluation request of a sweep: per-component
// lethalities PS (the paper's P_i) under defect distribution Dist.
// A point with a nil Dist reports an error.
type SweepPoint struct {
	PS   []float64
	Dist defects.Distribution
}

// SweepResult is the outcome for the sweep point at the same index.
type SweepResult struct {
	// Yield is the pessimistic estimate Y_M for the point's model; the
	// true yield lies in [Yield, Yield+ErrorBound].
	Yield      float64
	ErrorBound float64
	// Err is non-nil when the point's inputs were invalid (results for
	// other points are unaffected).
	Err error
}

// SweepOptions configure a sweep.
type SweepOptions struct {
	// Workers is the number of evaluation goroutines; ≤ 0 means
	// runtime.GOMAXPROCS(0). The results are independent of the worker
	// count: every point's arithmetic is self-contained, so a sweep
	// with Workers: 8 is bit-identical to Workers: 1.
	Workers int
	// Recorder, when non-nil, receives sweep instrumentation: a
	// "sweep.passes" counter (ROMDD passes, one per distinct
	// lethality vector), a "sweep.point_ns" latency histogram of the
	// per-point law work, "sweep.points" and "sweep.errors" counters,
	// per-pool busy time ("sweep.busy_ns", passes included) and a
	// "sweep.utilization" gauge (busy time / workers × wall time).
	// Leaving it nil keeps the per-point loop free of clock reads.
	Recorder *obs.Registry
}

// sweepVector is one distinct lethality vector of a sweep with its
// split ROMDD pass.
type sweepVector struct {
	pprime []float64
	pl     float64
	g      []float64
	s      float64
	err    error
}

// Sweep evaluates a grid of (P_i, distribution) points on the shared
// frozen ROMDD with a bounded worker pool. Results are order-stable:
// out[i] always corresponds to points[i].
//
// The points are grouped by their P_i vector. Each distinct vector
// costs one linear ROMDD pass, which yields its conditional-failure
// vector; each point then costs one lethal-model transform and a dot
// product of M+2 terms. A law sweep at fixed P_i is therefore one pass
// however many points it has; the worker pool spreads the passes of
// grids that vary P_i and the law work of large grids over the cores.
// Each point's arithmetic is that of Yield, so the results equal it
// exactly.
//
// Points with invalid inputs report through SweepResult.Err instead of
// failing the whole sweep, so a grid that brushes P_L = 0 or P_L > 1
// at its edges still returns every interior value.
func (r *Reevaluator) Sweep(points []SweepPoint, opts SweepOptions) []SweepResult {
	out := make([]SweepResult, len(points))
	if len(points) == 0 {
		return out
	}
	workers := par.Workers(opts.Workers, len(points))
	rec := opts.Recorder
	// Resolve instruments once, outside the point loop; nil stays nil
	// and the loop takes the uninstrumented branch.
	var pointNS *obs.Histogram
	var passCnt, pointCnt, errCnt, busyNS *obs.Counter
	var sweepStart time.Time
	if rec != nil {
		passCnt = rec.Counter("sweep.passes")
		pointNS = rec.Histogram("sweep.point_ns")
		pointCnt = rec.Counter("sweep.points")
		errCnt = rec.Counter("sweep.errors")
		busyNS = rec.Counter("sweep.busy_ns")
		rec.Gauge("sweep.workers").Set(int64(workers))
		sweepStart = time.Now()
	}

	// Group the points with a distribution by their P_i vector.
	vecOf := make([]int, len(points))
	var vecs []sweepVector
	index := map[string]int{}
	for i, pt := range points {
		if pt.Dist == nil {
			continue
		}
		key := lethalityKey(pt.PS)
		j, ok := index[key]
		if !ok {
			j = len(vecs)
			index[key] = j
			var v sweepVector
			v.pprime, v.pl, v.err = r.lethality(pt.PS)
			vecs = append(vecs, v)
		}
		vecOf[i] = j
	}

	// Each worker owns its pass buffer; the frozen ROMDD itself is
	// shared read-only.
	newBuf := func() *mdd.PassBuffer { return new(mdd.PassBuffer) }
	_ = par.For(len(vecs), workers, newBuf, func(j int, buf *mdd.PassBuffer) error {
		v := &vecs[j]
		if v.err != nil {
			return nil
		}
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		v.g, v.s, v.err = r.condVector(v.pprime, buf)
		if rec != nil {
			busyNS.Add(int64(time.Since(t0)))
			passCnt.Inc()
		}
		return nil
	})
	_ = par.For(len(points), workers, nil, func(i int, _ struct{}) error {
		if points[i].Dist == nil {
			out[i] = SweepResult{Err: errNoDist}
			errCnt.Inc()
			return nil
		}
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		v := &vecs[vecOf[i]]
		err := v.err
		var y, bound float64
		if err == nil {
			y, bound, err = r.lawYield(points[i].Dist, v.pl, v.g, v.s)
		}
		out[i] = SweepResult{Yield: y, ErrorBound: bound, Err: err}
		if rec != nil {
			d := time.Since(t0)
			busyNS.Add(int64(d))
			pointNS.Observe(int64(d))
			pointCnt.Inc()
			if err != nil {
				errCnt.Inc()
			}
		}
		return nil
	})
	if rec != nil {
		wall := time.Since(sweepStart)
		if denom := wall.Nanoseconds() * int64(workers); denom > 0 {
			rec.FloatGauge("sweep.utilization").Set(float64(busyNS.Load()) / float64(denom))
		}
	}
	return out
}

// lethalityKey identifies a P_i vector by its bits.
func lethalityKey(ps []float64) string {
	b := make([]byte, 8*len(ps))
	for i, p := range ps {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(p))
	}
	return string(b)
}

// errNoDist reports a sweep point with no distribution.
var errNoDist = errors.New("yield: sweep point has no distribution (set SweepPoint.Dist)")

// LambdaGrid is a convenience builder for the most common sweep: fixed
// per-component lethalities ps evaluated against one distribution per
// entry of dists (e.g. negative binomials over a λ×α grid).
func LambdaGrid(ps []float64, dists []defects.Distribution) []SweepPoint {
	points := make([]SweepPoint, len(dists))
	for i, d := range dists {
		points[i] = SweepPoint{PS: ps, Dist: d}
	}
	return points
}
