// Package socyield evaluates the manufacturing yield (and operational
// reliability) of fault-tolerant systems-on-chip with the combinatorial
// method of Munteanu, Suñé, Rodríguez-Montañés and Carrasco (DSN 2003):
// the yield is expressed as 1 − P(G = 1) for a boolean function G of
// independent multiple-valued random variables, and that probability is
// computed on a ROMDD obtained from a coded ROBDD of G.
//
// # Quick start
//
//	f := socyield.NewFaultTree()
//	a, b, c := f.Input("m1"), f.Input("m2"), f.Input("m3")
//	f.SetOutput(f.Or(f.And(a, b), f.And(a, c), f.And(b, c))) // TMR: down if ≥ 2 fail
//
//	sys := &socyield.System{
//		Name: "tmr",
//		Components: []socyield.Component{
//			{Name: "m1", P: 0.2}, {Name: "m2", P: 0.15}, {Name: "m3", P: 0.15},
//		},
//		FaultTree: f,
//	}
//	dist, _ := socyield.NewNegativeBinomial(2, 0.25) // λ defects, clustering α
//	res, err := socyield.Evaluate(sys, socyield.Options{Defects: dist, Epsilon: 1e-4})
//	// res.Yield ≤ true yield ≤ res.Yield + res.ErrorBound
//
// Fault trees are gate-level netlists (AND/OR/NOT/XOR/threshold) whose
// inputs are the components' failed-state variables; the function value
// 1 means the system is NOT functioning. Defect distributions include
// the negative binomial (the standard clustered yield model), Poisson,
// geometric, deterministic counts, the compound Poisson, and the
// hierarchical/multilevel clustered models (nested gamma-modulated
// Poisson intensities); arbitrary distributions are supported through
// the Distribution interface and are thinned to the lethal-defect
// model numerically.
//
// The benchmark generators of the paper (MSn master–slave SoCs and
// ESENnxm interconnection-network SoCs), the ordering heuristics, the
// Monte-Carlo baseline and the reliability extension are exposed
// through the sub-APIs re-exported here.
package socyield

import (
	"io"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/logic"
	"socyield/internal/montecarlo"
	"socyield/internal/obs"
	"socyield/internal/order"
	"socyield/internal/reliability"
	"socyield/internal/server"
	"socyield/internal/store"
	"socyield/internal/yield"
)

// FaultTree is a combinational gate-level netlist describing the
// structure function of a system: output 1 ⇔ system not functioning.
type FaultTree = logic.Netlist

// NewFaultTree returns an empty fault tree ready for construction.
func NewFaultTree() *FaultTree { return logic.New() }

// System describes a fault-tolerant system-on-chip.
type System = yield.System

// Component is one component with its defect-lethality probability.
type Component = yield.Component

// Options configure Evaluate.
type Options = yield.Options

// Result reports a yield estimate and the method's structural
// statistics.
type Result = yield.Result

// ErrNodeLimit is returned when the decision diagrams exceed the
// configured node budget.
var ErrNodeLimit = yield.ErrNodeLimit

// Evaluate runs the combinatorial yield method end to end.
func Evaluate(sys *System, opts Options) (*Result, error) { return yield.Evaluate(sys, opts) }

// Metrics is a registry of counters, gauges and histograms. Set Options.Recorder (or the sweep / Monte-Carlo equivalents)
// to one instance to instrument a run; its Snapshot and WriteJSON
// methods export everything collected. A nil *Metrics is valid
// everywhere and records nothing.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time JSON-marshalable copy of a
// Metrics registry.
type MetricsSnapshot = obs.Snapshot

// EngineStats aggregates the decision-diagram engine counters of one
// evaluation (ROBDD apply cache and unique table, ROMDD construction,
// conversion work). Every Result carries one in Result.Stats.
type EngineStats = yield.EngineStats

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Tracer collects a build's phase events and per-gate compile events
// into a bounded ring for the Chrome trace export. Set Options.Tracer
// to record a build; a nil *Tracer is valid everywhere and records
// nothing.
type Tracer = obs.Tracer

// TraceEvent is one timed slice of a build: one phase or one compiled
// gate.
type TraceEvent = obs.TraceEvent

// NewTracer returns a tracer with the given event-ring capacity (≤ 0
// selects the default).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// WriteChromeTrace writes a tracer's events — each build's phases on
// a "phases" track, its per-gate compile events on a "build" track —
// as one Chrome trace-event JSON document loadable at
// https://ui.perfetto.dev or chrome://tracing. The process_name row
// carries the tracer's dropped-event count.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	return obs.WriteChromeTrace(w, t)
}

// BuildState tracks the live progress of one model build (phase,
// work-unit counts, live nodes); Options.BuildState threads it through
// the pipeline and Snapshot reads it from any goroutine. The yieldd
// /v1/builds endpoint serves these. A nil *BuildState is valid
// everywhere and records nothing.
type BuildState = obs.BuildState

// BuildStatus is a point-in-time snapshot of a BuildState.
type BuildStatus = obs.BuildStatus

// NewBuildState returns a build tracker with the clock started.
func NewBuildState() *BuildState { return obs.NewBuildState() }

// BruteForce computes the same estimate exactly by one dynamic program
// over the ROBDD of the fault tree itself, bounded by
// Options.NodeLimit on that diagram. It shares the BDD engine with
// Evaluate; ExactYield is the check that uses none.
func BruteForce(sys *System, opts Options) (*Result, error) { return yield.BruteForce(sys, opts) }

// ExactYield computes Y_M by direct summation over every assignment of
// the generalized function G — the exact-enumeration oracle the ROMDD
// pipeline is differentially tested against (C ≤ 12, small M).
func ExactYield(sys *System, opts Options) (*Result, error) { return yield.ExactYield(sys, opts) }

// ModelKey returns a collision-resistant key identifying the compiled
// model Evaluate would build for (sys, opts) — the fault-tree
// structure, the orderings, ε, the node budget and the resolved
// truncation point M (also returned). Component names and lethality
// values do not enter the key: the same compiled model serves any P_i.
// The yieldd service uses it to cache Reevaluators across requests.
func ModelKey(sys *System, opts Options) (key string, m int, err error) {
	return yield.ModelKey(sys, opts)
}

// ServerConfig configures the yieldd HTTP evaluation service (listen
// address, compiled-model cache size, node budget, concurrency limit,
// request timeout, metrics registry, request logger).
type ServerConfig = server.Config

// EvaluationServer is the yieldd HTTP/JSON service: POST /v1/evaluate
// and /v1/sweep evaluate systems against defect models on a keyed LRU
// cache of compiled models with single-flight deduplication; GET
// /healthz and /metrics expose liveness and the live counters. Use
// Handler to mount it into an existing server or ListenAndServe to run
// it standalone with graceful shutdown on context cancellation.
type EvaluationServer = server.Server

// NewEvaluationServer returns a ready-to-serve evaluation service.
func NewEvaluationServer(cfg ServerConfig) *EvaluationServer { return server.New(cfg) }

// Reevaluator reevaluates the yield of one system for many defect
// models without rebuilding decision diagrams. It is immutable after
// construction, so one shared instance serves concurrent Yield,
// YieldRaw, Sensitivities and Sweep calls from any number of
// goroutines.
type Reevaluator = yield.Reevaluator

// NewReevaluator builds the system's ROMDD once for later sweeps.
func NewReevaluator(sys *System, opts Options) (*Reevaluator, error) {
	return yield.NewReevaluator(sys, opts)
}

// ModelSnapshot is a self-contained, serializable copy of a compiled
// model: the frozen ROMDD plus the metadata needed to restore a
// Reevaluator and to detect staleness (engine revision, model key).
type ModelSnapshot = yield.Snapshot

// RestoreReevaluator rebuilds a ready-to-evaluate Reevaluator from a
// snapshot — no compilation, typically milliseconds.
func RestoreReevaluator(snap *ModelSnapshot) (*Reevaluator, error) {
	return yield.RestoreReevaluator(snap)
}

// EncodeModel serializes a compiled-model snapshot into the versioned,
// checksummed binary format of the persistent store.
func EncodeModel(snap *ModelSnapshot) ([]byte, error) { return store.Encode(snap) }

// DecodeModel parses and validates an encoded compiled model. It
// returns typed errors (e.g. ErrModelChecksum, ErrModelRevision) for
// every corruption class and never panics on hostile input.
func DecodeModel(data []byte) (*ModelSnapshot, error) { return store.Decode(data) }

// Typed failure classes of DecodeModel, testable with errors.Is.
var (
	ErrModelTruncated = store.ErrTruncated
	ErrModelChecksum  = store.ErrChecksum
	ErrModelVersion   = store.ErrVersion
	ErrModelRevision  = store.ErrEngineRevision
	ErrModelCorrupt   = store.ErrCorrupt
)

// ModelStore is a size-capped on-disk LRU of encoded compiled models,
// keyed by ModelKey. It is the persistent second tier of the yieldd
// cache and the artifact behind yieldsoc -save-model/-load-model.
type ModelStore = store.Store

// OpenModelStore opens (creating if needed) a model store rooted at
// dir. maxBytes 0 means unlimited; metrics may be nil.
func OpenModelStore(dir string, maxBytes int64, metrics *Metrics) (*ModelStore, error) {
	return store.Open(dir, maxBytes, metrics)
}

// SweepPoint is one (per-component lethalities, defect distribution)
// evaluation request of a batch sweep.
type SweepPoint = yield.SweepPoint

// SweepResult is the yield estimate for the sweep point at the same
// index.
type SweepResult = yield.SweepResult

// SweepOptions configure Reevaluator.Sweep: the worker count (default
// GOMAXPROCS; results are bit-identical for every worker count) and
// optional instrumentation.
type SweepOptions = yield.SweepOptions

// LambdaGrid builds the sweep points for fixed lethalities ps against
// one distribution per entry of dists — the (λ, α) grid workload.
func LambdaGrid(ps []float64, dists []Distribution) []SweepPoint {
	return yield.LambdaGrid(ps, dists)
}

// Distribution is a distribution of the number of manufacturing
// defects.
type Distribution = defects.Distribution

// NegativeBinomial is the standard clustered defect model.
type NegativeBinomial = defects.NegativeBinomial

// NewNegativeBinomial validates and returns a negative binomial
// distribution with mean lambda and clustering parameter alpha.
func NewNegativeBinomial(lambda, alpha float64) (NegativeBinomial, error) {
	return defects.NewNegativeBinomial(lambda, alpha)
}

// Poisson is the unclustered defect model.
type Poisson = defects.Poisson

// Geometric is the negative binomial with clustering parameter 1.
type Geometric = defects.Geometric

// Deterministic places all probability on an exact defect count.
type Deterministic = defects.Deterministic

// CompoundPoisson is the general clustered defect family (Poisson
// cluster arrivals, arbitrary cluster sizes).
type CompoundPoisson = defects.CompoundPoisson

// NewCompoundPoisson validates and returns a compound Poisson defect
// model.
func NewCompoundPoisson(rate float64, clusterSize Distribution) (CompoundPoisson, error) {
	return defects.NewCompoundPoisson(rate, clusterSize)
}

// Logarithmic is the cluster-size law under which a compound Poisson
// is exactly negative binomial.
type Logarithmic = defects.Logarithmic

// Hierarchical is the two-level clustered defect model: Poisson defect
// counts whose intensity is modulated by two nested gamma-distributed
// scale factors (die within wafer within lot).
type Hierarchical = defects.Hierarchical

// NewHierarchical validates and returns a two-level hierarchical model
// with mean lambda and per-level clustering parameters alpha and beta.
func NewHierarchical(lambda, alpha, beta float64) (Hierarchical, error) {
	return defects.NewHierarchical(lambda, alpha, beta)
}

// Multilevel is the general L-level clustered defect model with one
// gamma-distributed scale factor per hierarchy level; one level is
// exactly the negative binomial.
type Multilevel = defects.Multilevel

// NewMultilevel validates and returns an L-level model with mean
// lambda and one clustering parameter per level, innermost first.
func NewMultilevel(lambda float64, alphas ...float64) (Multilevel, error) {
	return defects.NewMultilevel(lambda, alphas...)
}

// MVOrdering selects the ordering of the multiple-valued variables
// (paper names: wv, wvr, vw, vrw, t, w, h).
type MVOrdering = order.MVKind

// BitOrdering selects the ordering of the bits encoding each
// multiple-valued variable (paper names: ml, lm, t, w, h).
type BitOrdering = order.BitKind

// The multiple-valued variable orderings of the paper.
const (
	MVOrderWV       = order.MVWV
	MVOrderWVR      = order.MVWVR
	MVOrderVW       = order.MVVW
	MVOrderVRW      = order.MVVRW
	MVOrderTopology = order.MVTopology
	MVOrderWeight   = order.MVWeight
	MVOrderH4       = order.MVH4
)

// The bit-group orderings of the paper.
const (
	BitOrderML       = order.BitML
	BitOrderLM       = order.BitLM
	BitOrderTopology = order.BitTopology
	BitOrderWeight   = order.BitWeight
	BitOrderH4       = order.BitH4
)

// MS builds the paper's master–slave benchmark SoC with n slave
// clusters.
func MS(n int) (*System, error) { return benchmarks.MS(n) }

// ESEN builds the paper's interconnection-network benchmark SoC with
// n network ports and multiplexing factor m.
func ESEN(n, m int) (*System, error) { return benchmarks.ESEN(n, m) }

// MonteCarloOptions configure the simulation baseline.
type MonteCarloOptions = montecarlo.Options

// MonteCarloResult is a simulation estimate with confidence interval.
type MonteCarloResult = montecarlo.Result

// MonteCarlo estimates the yield by simulation — the error-bar-free
// alternative the combinatorial method improves on.
func MonteCarlo(sys *System, opts MonteCarloOptions) (MonteCarloResult, error) {
	return montecarlo.Estimate(sys, opts)
}

// ImportanceOptions configure the rare-event importance-sampling
// simulator (sample budget, adaptive or fixed exponential tilt).
type ImportanceOptions = montecarlo.ISOptions

// ImportanceResult is an importance-sampling estimate with its
// diagnostics (chosen tilt, effective sample size, relative error on
// the failure probability).
type ImportanceResult = montecarlo.ISResult

// MonteCarloImportance estimates the yield by importance-sampled
// simulation under an exponentially tilted defect-count proposal —
// sharp in the near-certain-yield regime where naive simulation
// degenerates to an all-pass sample.
func MonteCarloImportance(sys *System, opts ImportanceOptions) (ImportanceResult, error) {
	return montecarlo.EstimateIS(sys, opts)
}

// Lifetime models a component's field-failure process for the
// reliability extension.
type Lifetime = reliability.Lifetime

// Exponential is a constant-failure-rate lifetime.
type Exponential = reliability.Exponential

// Weibull is a shape-parameterized lifetime.
type Weibull = reliability.Weibull

// ReliabilityOptions configure ReliabilityCurve.
type ReliabilityOptions = reliability.Options

// ReliabilityResult is a reliability-over-time curve.
type ReliabilityResult = reliability.Result

// ReliabilityCurve evaluates operational reliability (manufacturing
// defects plus field failures) at the given time points.
func ReliabilityCurve(sys *System, opts ReliabilityOptions, times []float64) (*ReliabilityResult, error) {
	return reliability.Curve(sys, opts, times)
}
