// Command experiments regenerates the evaluation artifacts of the
// paper (Tables 1–4) plus the reproduction ablations, printing measured
// values next to the published ones.
//
// Usage:
//
//	experiments -table 1            # benchmark inventory
//	experiments -table 2            # ROMDD size vs MV ordering
//	experiments -table 3            # coded-ROBDD size vs bit ordering
//	experiments -table 4            # end-to-end method performance
//	experiments -ablation direct-mdd
//	experiments -baseline mc -samples 200000
//	experiments -baseline is -samples 200000   # importance sampling
//	experiments -all                # everything the paper reports
//	experiments -workers 8 -table 4 -full
//
// By default only the quick row subset runs; -full selects all fifteen
// rows of the paper's tables (minutes to an hour on one core —
// -workers fans independent rows out across cores).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"socyield/internal/cliutil"
	"socyield/internal/experiments"
	"socyield/internal/obs"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate table 1-4")
		ablation  = flag.String("ablation", "", `ablation to run ("direct-mdd")`)
		baseline  = flag.String("baseline", "", `baseline to run ("mc" naive, "is" importance sampling)`)
		samples   = flag.Int("samples", 200000, "Monte-Carlo samples per case")
		full      = flag.Bool("full", false, "run all fifteen paper rows (slow)")
		caseList  = flag.String("cases", "", `explicit row list, e.g. "MS6:1,ESEN4x4:1" (overrides -full)`)
		all       = flag.Bool("all", false, "run every table and ablation")
		nodeLimit = flag.Int("nodelimit", 0, "decision-diagram node budget (0 = 30M for Table 2, 100M for the others)")
		epsilon   = flag.Float64("eps", 0, "yield error requirement (0 = default 2e-3)")
		alpha     = flag.Float64("alpha", 0, "NB clustering parameter (0 = default 3.4)")
		workers   = flag.Int("workers", 0, "cases evaluated concurrently (0 = all cores)")
		metricsJS = flag.String("metrics-json", "", "write collected metrics as JSON to this file (\"-\" = stdout)")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event file of the run to this file (Perfetto-loadable)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address")
	)
	flag.Parse()
	var rec *obs.Registry
	if *metricsJS != "" {
		rec = obs.NewRegistry()
	}
	if *pprofAddr != "" {
		cliutil.ServeDebug("experiments", *pprofAddr)
	}
	flight := cliutil.StartFlightRecorder(*traceOut)
	cfg := experiments.Config{Alpha: *alpha, Epsilon: *epsilon, NodeLimit: *nodeLimit, Workers: *workers, Recorder: rec, Tracer: flight.Tracer()}
	cases := experiments.QuickCases()
	if *full || *all {
		cases = experiments.PaperCases()
	}
	if *caseList != "" {
		parsed, err := parseCases(*caseList)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cases = parsed
	}
	ran := false
	run := func(name string, fn func() error) {
		ran = true
		start := time.Now()
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *table == 1 || *all {
		run("Table 1: benchmark inventory", func() error { return printTable1(os.Stdout) })
	}
	if *table == 2 || *all {
		run("Table 2: ROMDD size vs MV-variable ordering", func() error { return printTable2(os.Stdout, cases, cfg) })
	}
	if *table == 3 || *all {
		run("Table 3: coded-ROBDD size vs bit-group ordering", func() error { return printTable3(os.Stdout, cases, cfg) })
	}
	if *table == 4 || *all {
		run("Table 4: method performance (w + ml)", func() error { return printTable4(os.Stdout, cases, cfg) })
	}
	if *ablation == "direct-mdd" || *all {
		run("Ablation: coded-ROBDD route vs direct MDD apply", func() error { return printAblation(os.Stdout, cases, cfg) })
	}
	if *baseline == "mc" || *all {
		run("Baseline: Monte-Carlo simulation", func() error { return printBaseline(os.Stdout, cases, *samples, cfg) })
	}
	if *baseline == "is" || *all {
		run("Baseline: importance-sampling simulation", func() error { return printBaselineIS(os.Stdout, cases, *samples, cfg) })
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if err := flight.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *metricsJS != "" {
		if err := cliutil.WriteMetrics(rec, *metricsJS); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

func parseCases(s string) ([]experiments.Case, error) {
	var out []experiments.Case
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		bench, lp, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad case %q, want <bench>:<lambda-prime>", part)
		}
		n, err := strconv.Atoi(lp)
		if err != nil {
			return nil, fmt.Errorf("bad λ' in %q: %v", part, err)
		}
		out = append(out, experiments.Case{Benchmark: bench, LambdaPrime: n})
	}
	return out, nil
}

func printTable1(w io.Writer) error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Benchmark,
			strconv.Itoa(r.Components), strconv.Itoa(r.PaperC),
			strconv.Itoa(r.Gates), strconv.Itoa(r.PaperGates),
		})
	}
	fmt.Fprint(w, experiments.FormatTable(
		[]string{"benchmark", "C", "C(paper)", "gates", "gates(paper)"}, out))
	return nil
}

func printTable2(w io.Writer, cases []experiments.Case, cfg experiments.Config) error {
	rows, err := experiments.Table2(cases, cfg)
	if err != nil {
		return err
	}
	header := []string{"case"}
	for _, mv := range experiments.Table2MVOrderings() {
		header = append(header, mv.String(), mv.String()+"(paper)")
	}
	var out [][]string
	for _, r := range rows {
		line := []string{r.Case.String()}
		for _, mv := range experiments.Table2MVOrderings() {
			line = append(line, r.Sizes[mv.String()].String(), paperCell(r.Paper, mv.String()))
		}
		out = append(out, line)
	}
	fmt.Fprint(w, experiments.FormatTable(header, out))
	return nil
}

func printTable3(w io.Writer, cases []experiments.Case, cfg experiments.Config) error {
	rows, err := experiments.Table3(cases, cfg)
	if err != nil {
		return err
	}
	header := []string{"case"}
	for _, bk := range experiments.Table3BitOrderings() {
		header = append(header, bk.String(), bk.String()+"(paper)")
	}
	var out [][]string
	for _, r := range rows {
		line := []string{r.Case.String()}
		for _, bk := range experiments.Table3BitOrderings() {
			line = append(line, r.Sizes[bk.String()].String(), paperCell(r.Paper, bk.String()))
		}
		out = append(out, line)
	}
	fmt.Fprint(w, experiments.FormatTable(header, out))
	return nil
}

func printTable4(w io.Writer, cases []experiments.Case, cfg experiments.Config) error {
	rows, err := experiments.Table4(cases, cfg)
	if err != nil {
		return err
	}
	header := []string{"case", "cpu", "cpu(paper)", "peak", "peak(paper)",
		"robdd", "robdd(paper)", "romdd", "romdd(paper)", "yield", "yield(paper)", "M"}
	var out [][]string
	for _, r := range rows {
		line := []string{r.Case.String()}
		if r.Failed {
			line = append(line, "—", paperSec(r), strconv.Itoa(r.Peak), paperInt(r.PaperRow.Peak, r.HavePaper),
				"—", paperInt(r.PaperRow.ROBDD, r.HavePaper), "—", paperInt(r.PaperRow.ROMDD, r.HavePaper),
				"—", paperYield(r), strconv.Itoa(r.M))
		} else {
			line = append(line,
				r.CPU.Round(10*time.Millisecond).String(), paperSec(r),
				strconv.Itoa(r.Peak), paperInt(r.PaperRow.Peak, r.HavePaper),
				strconv.Itoa(r.ROBDD), paperInt(r.PaperRow.ROBDD, r.HavePaper),
				strconv.Itoa(r.ROMDD), paperInt(r.PaperRow.ROMDD, r.HavePaper),
				fmt.Sprintf("%.4f", r.Yield), paperYield(r),
				strconv.Itoa(r.M))
		}
		out = append(out, line)
	}
	fmt.Fprint(w, experiments.FormatTable(header, out))
	return nil
}

func printAblation(w io.Writer, cases []experiments.Case, cfg experiments.Config) error {
	rows, err := experiments.AblationDirectMDD(cases, cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		direct := r.DirectTime.Round(time.Millisecond).String()
		agree := fmt.Sprintf("%v/%v", r.SizesAgree, r.YieldsAgree)
		if r.DirectFailed {
			direct, agree = "—", "—"
		}
		out = append(out, []string{
			r.Case.String(),
			r.CodedTime.Round(time.Millisecond).String(),
			direct,
			strconv.Itoa(r.ROMDD),
			agree,
		})
	}
	fmt.Fprint(w, experiments.FormatTable(
		[]string{"case", "coded-robdd route", "direct-mdd route", "romdd", "size/yield agree"}, out))
	return nil
}

func printBaseline(w io.Writer, cases []experiments.Case, samples int, cfg experiments.Config) error {
	rows, err := experiments.BaselineMonteCarlo(cases, samples, cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Case.String(),
			fmt.Sprintf("%.4f", r.Exact),
			r.ExactTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f±%.4f", r.MC, 1.96*r.MCStdErr),
			r.MCTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%v", r.WithinThree),
		})
	}
	fmt.Fprint(w, experiments.FormatTable(
		[]string{"case", "combinatorial", "time", "monte-carlo (95% CI)", "time", "consistent"}, out))
	return nil
}

func printBaselineIS(w io.Writer, cases []experiments.Case, samples int, cfg experiments.Config) error {
	rows, err := experiments.BaselineImportance(cases, samples, cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Case.String(),
			fmt.Sprintf("%.4f", r.Exact),
			r.ExactTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f±%.4f", r.IS, 1.96*r.ISStdErr),
			fmt.Sprintf("%.2f", r.Tilt),
			fmt.Sprintf("%.0f", r.ESS),
			fmt.Sprintf("%.3g", r.RelErr),
			r.ISTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%v", r.WithinThree),
		})
	}
	fmt.Fprint(w, experiments.FormatTable(
		[]string{"case", "combinatorial", "time", "importance-sampling (95% CI)", "tilt", "ess", "rel-err", "time", "consistent"}, out))
	return nil
}

func paperCell(m map[string]experiments.Cell, key string) string {
	if m == nil {
		return "?"
	}
	c, ok := m[key]
	if !ok {
		return "?"
	}
	return c.String()
}

func paperInt(v int, have bool) string {
	if !have {
		return "?"
	}
	return strconv.Itoa(v)
}

func paperSec(r experiments.Table4Row) string {
	if !r.HavePaper {
		return "?"
	}
	return fmt.Sprintf("%.2fs", r.PaperRow.CPUSeconds)
}

func paperYield(r experiments.Table4Row) string {
	if !r.HavePaper {
		return "?"
	}
	return fmt.Sprintf("%.3f", r.PaperRow.Yield)
}
