package e2e

import "socyield/perfbench/harness"

// EndToEnd returns the end-to-end metrics, which every workload
// reports under the same names. A workload times operations of a few
// classes (build: one cold build per case; serve: hit, store, miss and
// sweep requests) and names one of them its main class.
//
//   - main_p50_ms is the median latency of the main class.
//   - class_gmean_ms is the geometric mean of every class's median
//     latency, so that a change to any class moves it by its share.
//   - peak_heap_mb is the peak Go heap of the timed part, taken as a
//     median over windows the workload defines.
//   - setup_s is the median time of the workload's set-up.
func EndToEnd(mainMS float64, classMS []float64, peakMB, setupS float64) map[string]harness.Metric {
	return map[string]harness.Metric{
		"main_p50_ms":    {Value: mainMS, Unit: "ms"},
		"class_gmean_ms": {Value: harness.GeoMean(classMS), Unit: "ms"},
		"peak_heap_mb":   {Value: peakMB, Unit: "MB"},
		"setup_s":        {Value: setupS, Unit: "s"},
	}
}
