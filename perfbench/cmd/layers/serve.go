package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"time"

	"socyield"
	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/server"
	"socyield/internal/store"
	"socyield/internal/yield"
	"socyield/perfbench/e2e"
	"socyield/perfbench/harness"
)

// layersServe is the traced serve workload. It drives the same ladder
// as the end-to-end run, reads the class mix back from the responses
// and /metrics, and then replays the requests of the reported rungs
// through the layer functions a request passes, outside the server,
// with a span around each call. A cold request's model is built plain,
// traced and instrumented, as the build workload's are. One ROMDD pass
// is timed on the first hot model, the one sweeps use.
func layersServe(a harness.Args, tl *harness.Tally, sp *Spans) (map[string]harness.Metric, error) {
	env, err := e2e.NewServeEnv(a.Seed, a.Seconds, tl)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	run, err := env.Run(tl)
	if err != nil {
		return nil, err
	}
	e2eMetrics, err := env.ServeMetrics(run, 0, os.Stdout)
	if err != nil {
		return nil, err
	}

	var lateness []float64
	hits, answered := 0, 0
	for r, reqs := range env.Plan.Requests {
		for i, rq := range reqs {
			o := &run.Outcomes[r][i]
			lateness = append(lateness, e2e.Millis(o.Sent-rq.Due))
			var resp struct {
				CacheHit bool `json:"cache_hit"`
			}
			if o.Err == nil && json.Unmarshal(o.Body, &resp) == nil {
				answered++
				if resp.CacheHit {
					hits++
				}
			}
		}
	}
	late, err := harness.Tail(lateness, 99)
	if err != nil {
		return nil, err
	}

	st := map[string][]float64{}
	var bl buildLayers
	for r, reqs := range env.Plan.Requests {
		if env.Plan.Rungs[r].Rate > e2e.ReportRate {
			continue
		}
		for i, rq := range reqs {
			if err := replay(env, sp, &bl, fmt.Sprintf("req/%d/%d", r, i), rq, st); !tl.Check(err == nil) {
				fmt.Println("serve replay:", err)
			}
		}
	}
	hot := env.Plan.Hot[0]
	pass, err := passMS(env.Refs[hot], e2e.Lethalities(hot.Sys), e2e.NB(hot.Lambda, hot.Alpha), 101, tl, sp)
	if err != nil {
		return nil, err
	}

	med := func(name string) float64 { return harness.Median(st[name]) }
	us, ms := "us", "ms"
	stages := med("decode") + med("resolve") + med("key") + med("eval") + med("encode")
	m := bl.metrics()
	maps.Copy(m, passMetrics(pass, env.Refs[hot]))
	maps.Copy(m, map[string]harness.Metric{
		"server.decode_us":       {Value: med("decode"), Unit: us},
		"server.encode_us":       {Value: med("encode"), Unit: us},
		"resolve.us":             {Value: med("resolve"), Unit: us},
		"yield.model_key_us":     {Value: med("key"), Unit: us},
		"yield.eval_us":          {Value: med("eval"), Unit: us},
		"yield.sens_ms":          {Value: med("sens") / 1000, Unit: ms},
		"store.get_ms":           {Value: med("store.get") / 1000, Unit: ms},
		"store.decode_ms":        {Value: med("store.decode") / 1000, Unit: ms},
		"store.restore_ms":       {Value: med("store.restore") / 1000, Unit: ms},
		"yield.build_ms":         {Value: harness.Median(bl.plainMS), Unit: ms},
		"server.residual_us":     {Value: e2eMetrics["main_p50_ms"].Value*1000 - stages, Unit: us},
		"server.cache_hit_ratio": {Value: float64(hits) / float64(answered), Unit: "ratio"},
		"server.builds":          {Value: run.Compiles, Unit: "count"},
		"server.store_loads":     {Value: run.StoreLoads, Unit: "count"},
		"client.lateness_p99_ms": {Value: late.Value, Unit: ms},
		"server.hit_p50_ms":      {Value: e2eMetrics["main_p50_ms"].Value, Unit: ms},
	})
	return m, nil
}

// replay passes one request through the stages of the server's
// handler, calling the layers directly, and records each stage's
// duration in µs under its name in st. Only plain hits record the
// hit-path stages, so their medians add up to a hit.
func replay(env *e2e.ServeEnv, sp *Spans, bl *buildLayers, trace string, rq *e2e.Request, st map[string][]float64) error {
	root := sp.Start(trace, "request/"+rq.Class.String(), -1)
	defer sp.End(root)
	stage := func(name, span string, f func()) {
		d := sp.Do(trace, span, root, f)
		if name != "" {
			st[name] = append(st[name], float64(d)/float64(time.Microsecond))
		}
	}
	hit := rq.Class == harness.Hit
	on := func(name string) string {
		if hit {
			return name
		}
		return ""
	}

	var req server.SweepRequest // a superset of EvaluateRequest's model fields
	var sens bool
	var err error
	stage(on("decode"), "server.decode", func() {
		if rq.Class == harness.Sweep {
			err = strictDecode(rq.Body, &req)
			return
		}
		var ev server.EvaluateRequest
		err = strictDecode(rq.Body, &ev)
		req.ModelRequest, sens = ev.ModelRequest, ev.Sensitivities
	})
	if err != nil {
		return err
	}

	// resolve, as the handler does it: system, defect law, options.
	var sys *yield.System
	var opts yield.Options
	res := sp.Start(trace, "resolve", root)
	sp.Do(trace, "benchmarks.ByName", res, func() { sys, err = benchmarks.ByName(req.Bench) })
	var dist defects.Distribution
	if err == nil {
		dist, err = defects.NewNegativeBinomial(req.Defects.Lambda, req.Defects.Alpha)
	}
	if err == nil {
		opts = yield.Options{Defects: dist, Epsilon: req.Epsilon, NodeLimit: e2e.ServeNodeLimit}
		harness.PinSerialBuild(&opts)
		for i, p := range req.Lethalities {
			sys.Components[i].P = p
		}
	}
	if d := sp.End(res); hit {
		st["resolve"] = append(st["resolve"], float64(d)/float64(time.Microsecond))
	}
	if err != nil {
		return err
	}
	var key string
	stage(on("key"), "yield.ModelKey", func() { key, _, err = yield.ModelKey(sys, opts) })
	if err != nil {
		return err
	}
	if key != rq.Spec.Key {
		return fmt.Errorf("%s: replayed model key differs from the planned one", trace)
	}

	var re *yield.Reevaluator
	switch rq.Class {
	case harness.Warm:
		var data []byte
		var snap *yield.Snapshot
		stage("store.get", "store.Get", func() { data, err = env.Store.Get(key) })
		if err == nil {
			stage("store.decode", "store.Decode", func() { snap, err = store.Decode(data) })
		}
		if err == nil {
			stage("store.restore", "yield.RestoreReevaluator", func() { re, err = yield.RestoreReevaluator(snap) })
		}
	case harness.Cold:
		re, _, err = bl.build(sp, trace+"/build", sys, opts)
	default:
		re = env.Refs[rq.Spec]
	}
	if err != nil {
		return err
	}

	var resp any
	if rq.Class == harness.Sweep {
		var res []socyield.SweepResult
		stage("", "Reevaluator.Sweep", func() {
			pts := make([]socyield.SweepPoint, len(req.Lambdas))
			for i, l := range req.Lambdas {
				pts[i] = socyield.SweepPoint{PS: req.Lethalities, Dist: e2e.NB(l, req.Defects.Alpha)}
			}
			res = re.Sweep(pts, socyield.SweepOptions{Workers: 1})
		})
		sr := server.SweepResponse{System: sys.Name, M: re.M(), ModelKey: key, CacheHit: true}
		for i, r := range res {
			sr.Results = append(sr.Results, server.SweepPointResponse{Lambda: req.Lambdas[i], Yield: r.Yield, ErrorBound: r.ErrorBound})
		}
		resp = sr
	} else {
		cached := rq.Class != harness.Warm && rq.Class != harness.Cold
		er := server.EvaluateResponse{System: sys.Name, Components: len(sys.Components), M: re.M(), ModelKey: key, CacheHit: cached, ROMDDNodes: re.Result.ROMDDSize}
		stage(on("eval"), "Reevaluator.Yield", func() { er.Yield, er.ErrorBound, err = re.Yield(req.Lethalities, opts.Defects) })
		if err != nil {
			return err
		}
		if sens {
			var ds []float64
			stage("sens", "Reevaluator.Sensitivities", func() { ds, err = re.Sensitivities(req.Lethalities, opts.Defects, 0) })
			for i, d := range ds {
				er.Sensitivities = append(er.Sensitivities, server.ComponentSensitivity{Component: sys.Components[i].Name, DYieldDP: d})
			}
		}
		resp = er
	}
	if err != nil {
		return err
	}
	stage(on("encode"), "server.encode", func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	})
	if err != nil {
		return err
	}
	// The replayed answer must pass the check the server's did.
	body, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	return env.Verify(rq, http.StatusOK, body, nil)
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
