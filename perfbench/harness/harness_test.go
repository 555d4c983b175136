package harness

import (
	"container/list"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	rungs := []Rung{{Rate: 100, Duration: 2 * time.Second}, {Rate: 400, Duration: time.Second}}
	a := Schedule(NewRand(7, 1), rungs)
	b := Schedule(NewRand(7, 1), rungs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, Schedule(NewRand(8, 1), rungs)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, r := range rungs {
		due := a[i]
		for j := 1; j < len(due); j++ {
			if due[j] < due[j-1] || due[j] >= r.Duration {
				t.Fatalf("rung %d: arrival %d at %v out of order or past %v", i, j, due[j], r.Duration)
			}
		}
		want := r.Rate * r.Duration.Seconds()
		if got := float64(len(due)); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rung %d: %v arrivals, want about %v", i, got, want)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so Tail must sort
		}
		return xs
	}
	// 2000 samples: p99 is rank 1980 and has 20 samples beyond it.
	got, err := Tail(seq(2000), 99)
	if err != nil || got.Value != 1980 || got.Percentile != 99 || got.N != 2000 {
		t.Fatalf("Tail(2000, 99) = %+v, %v", got, err)
	}
	// 500 samples: p99 would leave 5 beyond, so the rule lowers it to
	// rank 490, the highest with ten beyond.
	got, err = Tail(seq(500), 99)
	if err != nil || got.Value != 490 || got.Percentile != 98 || got.N != 500 {
		t.Fatalf("Tail(500, 99) = %+v, %v", got, err)
	}
	beyond := 0
	for _, x := range seq(500) {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != MinBeyond {
		t.Fatalf("%d samples beyond the reported percentile, want %d", beyond, MinBeyond)
	}
	if _, err := Tail(seq(10), 50); err != ErrTooFewSamples {
		t.Fatalf("Tail of 10 samples: err = %v, want ErrTooFewSamples", err)
	}
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("Median = %v, want 2.5", m)
	}
}

// lruSim is the server's LRU as the plan assumes it: capacity entries,
// most recently used at the front.
type lruSim struct {
	capacity int
	order    *list.List
	at       map[string]*list.Element
}

func newLRU(capacity int, initial []string) *lruSim {
	l := &lruSim{capacity: capacity, order: list.New(), at: map[string]*list.Element{}}
	for _, k := range initial {
		l.use(k)
	}
	return l
}

// use touches key and reports whether it was present.
func (l *lruSim) use(key string) bool {
	if e, ok := l.at[key]; ok {
		l.order.MoveToFront(e)
		return true
	}
	l.at[key] = l.order.PushFront(key)
	if l.order.Len() > l.capacity {
		old := l.order.Back()
		l.order.Remove(old)
		delete(l.at, old.Value.(string))
	}
	return false
}

func slotKey(s Slot) string {
	switch s.Class {
	case Warm:
		return "warm" + string(rune('a'+s.Key))
	case Cold:
		return "cold" + strings.Repeat("x", s.Key+1)
	}
	return "hot" + string(rune('a'+s.Key))
}

func TestPlanClassesMatchLRU(t *testing.T) {
	// The serve workload's sizes: 5 hot keys, 4 warm keys and an LRU
	// of the hot set plus 3.
	const hot, warm, spare, n = 5, 4, 3, 20000
	mix := Mix{Sens: 0.03, Sweep: 0.04, Warm: 0.03, Cold: 0.02}
	plan := PlanClasses(NewRand(3, 2), n, hot, warm, mix)
	if !reflect.DeepEqual(plan, PlanClasses(NewRand(3, 2), n, hot, warm, mix)) {
		t.Fatal("same seed gave different plans")
	}
	// Priming loads the warm keys in order, then the hot keys.
	var initial []string
	for k := 0; k < warm; k++ {
		initial = append(initial, slotKey(Slot{Class: Warm, Key: k}))
	}
	for k := 0; k < hot; k++ {
		initial = append(initial, slotKey(Slot{Class: Hit, Key: k}))
	}
	// misses counts the requests the LRU does not answer as their
	// class says.
	misses := func(spare int, plan []Slot) int {
		lru := newLRU(hot+spare, initial)
		bad := 0
		for _, s := range plan {
			if lru.use(slotKey(s)) == s.Class.inserts() {
				bad++
			}
		}
		return bad
	}
	// The server may see neighbouring requests swapped, since two
	// connections run at once. The plan must tolerate that.
	swapped := append([]Slot(nil), plan...)
	for i := 0; i+1 < len(swapped); i += 2 {
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	}
	for name, p := range map[string][]Slot{"in order": plan, "swapped pairs": swapped} {
		if bad := misses(spare, p); bad > 0 {
			t.Errorf("%s: %d requests answered against their class", name, bad)
		}
	}
	// One slot fewer is enough in order but not with swaps, so spare
	// is the smallest that works.
	if misses(spare-1, plan) > 0 || misses(spare-1, swapped) == 0 {
		t.Errorf("%d spare slots: %d misses in order, %d swapped; want 0 and more than 0",
			spare-1, misses(spare-1, plan), misses(spare-1, swapped))
	}

	var count [numClasses]int
	for _, s := range plan {
		count[s.Class]++
	}
	for c, share := range map[Class]float64{Sens: mix.Sens, Sweep: mix.Sweep, Warm: mix.Warm, Cold: mix.Cold} {
		want := share * n
		if got := float64(count[c]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("%v: %v requests, want about %v", c, got, want)
		}
	}
}

func TestTallyCountsWrongAnswers(t *testing.T) {
	var tl Tally
	tl.Check(true)
	tl.Check(false) // a wrong answer
	tl.Check(true)
	tl.Check(false) // an error
	if tl.Attempted() != 4 || tl.Failed() != 2 {
		t.Fatalf("tally = %d failed of %d", tl.Failed(), tl.Attempted())
	}
	if r := NewReport(&tl, nil); r.Correct {
		t.Fatal("report with failures is marked correct")
	}
	var none Tally
	if r := NewReport(&none, nil); r.Correct {
		t.Fatal("report with no operations is marked correct")
	}
	var ok Tally
	ok.Check(true)
	if r := NewReport(&ok, nil); !r.Correct || r.Attempted != 1 {
		t.Fatalf("report = %+v", r)
	}
}

func TestPinSerialBuild(t *testing.T) {
	type withKnob struct {
		Epsilon      float64
		BuildWorkers int
	}
	type withoutKnob struct{ Epsilon float64 }
	a := withKnob{BuildWorkers: 0}
	if !PinSerialBuild(&a) || a.BuildWorkers != 1 {
		t.Fatalf("PinSerialBuild with the field: %+v", a)
	}
	b := withoutKnob{Epsilon: 2}
	if PinSerialBuild(&b) || b.Epsilon != 2 {
		t.Fatalf("PinSerialBuild without the field: %+v", b)
	}
	if PinSerialBuild(a) {
		t.Fatal("PinSerialBuild on a non-pointer reported success")
	}
}

func TestParseArgs(t *testing.T) {
	a, err := ParseArgs(strings.Fields("--workload serve --seed 42 --seconds 7 --trace 1"))
	if err != nil || a != (Args{Workload: "serve", Seed: 42, Seconds: 7, Trace: true}) {
		t.Fatalf("ParseArgs = %+v, %v", a, err)
	}
	for _, bad := range []string{"--workload nope", "--workload build --trace 2", "--workload build --seconds 0", "--workload build extra"} {
		if _, err := ParseArgs(strings.Fields(bad)); err == nil {
			t.Errorf("ParseArgs(%q) accepted", bad)
		}
	}
}

func TestMedianSpread(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	// Quartiles 26 and 75, median 50.5, n = 100.
	want := 1.349 * (75 - 26) / (50.5 * 10)
	if got := MedianSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MedianSpread = %v, want %v", got, want)
	}
	if got := MedianSpread(xs[:3]); !math.IsNaN(got) {
		t.Fatalf("MedianSpread of 3 samples = %v, want NaN", got)
	}
}

func TestSplitAgainstManifest(t *testing.T) {
	want := []ManifestMetric{{"a_ms", "ms"}, {"b_s", "s"}}
	listed, extra, err := Split(map[string]Metric{"a_ms": {1, "ms"}, "b_s": {2, "s"}, "c": {3, "count"}}, want)
	if err != nil || len(listed) != 2 || len(extra) != 1 || extra["c"].Value != 3 {
		t.Fatalf("listed %v extra %v err %v", listed, extra, err)
	}
	if _, _, err := Split(map[string]Metric{"a_ms": {1, "ms"}}, want); err == nil {
		t.Error("a missing metric passed")
	}
	if _, _, err := Split(map[string]Metric{"a_ms": {1, "s"}, "b_s": {2, "s"}}, want); err == nil {
		t.Error("a metric in the wrong unit passed")
	}
	m, err := LoadManifest("../../" + ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Want(false)) == 0 || len(m.Want(true)) == 0 {
		t.Errorf("manifest lists %d end-to-end and %d per-layer metrics", len(m.Want(false)), len(m.Want(true)))
	}
}
