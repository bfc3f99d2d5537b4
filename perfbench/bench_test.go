package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/batch"
	"repro/corpus"
	"repro/internal/tree"
)

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	render := func(seed int64) string {
		var sb strings.Builder
		for _, p := range kernelPairs(seed) {
			fmt.Fprintln(&sb, p.name, p.f, p.g)
		}
		for _, tr := range joinCorpus(seed, 0) {
			fmt.Fprintln(&sb, tr)
		}
		in := newServeInputs(seed)
		for _, tr := range in.trees {
			fmt.Fprintln(&sb, tr)
		}
		for _, r := range in.stream(seed, "ref", serveRefRate, 2*time.Second) {
			fmt.Fprintln(&sb, r.due, r.method, r.path, string(r.body))
		}
		return sb.String()
	}
	a, b, c := render(11), render(11), render(12)
	if a != b {
		t.Fatal("the same seed generated different inputs")
	}
	if a == c {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metric) {
		var ws []entry
		for _, m := range want {
			ws = append(ws, entry{m.name, m.unit})
		}
		if !reflect.DeepEqual(got, ws) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", what, got, ws)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, in the benchmark %v", names, workloadNames())
	}

	// The printed result line carries exactly the set's names and units.
	o := &outcome{attempted: 1}
	for _, m := range endToEnd {
		o.set(m.name, 1)
	}
	var out bytes.Buffer
	line, err := report(config{workload: "kernel_shapes"}, o, &out)
	if err != nil {
		t.Fatal(err)
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if res.Metrics[m.name].Unit != m.unit {
			t.Errorf("result line: %s has unit %q, want %q", m.name, res.Metrics[m.name].Unit, m.unit)
		}
	}
	delete(o.metrics, "setup_s")
	if _, err := report(config{workload: "kernel_shapes"}, o, &out); err == nil {
		t.Error("a run missing a metric was reported")
	}
}

// A planted wrong answer among correct serve_mixed responses must count
// as one failure, and so lower success_rate by one over attempted.
func TestPlantedWrongAnswerCounts(t *testing.T) {
	in := newServeInputs(3)
	c := corpus.New(corpus.WithHistogramIndex())
	for _, tr := range in.trees {
		c.Add(tr)
	}
	e := c.Engine()
	var rs []sreq
	for _, r := range in.stream(3, "test", 0, 0)[:40] {
		if r.kind != "topk" { // keep the test fast
			rs = append(rs, r)
		}
	}
	obs := make([]sobs, len(rs))
	for k, r := range rs {
		status, body, _ := strings.Cut(expected(c, e, r), " ")
		if status != fmt.Sprint(http.StatusOK) {
			t.Fatalf("expected status %s for %s", status, r.path)
		}
		obs[k] = sobs{sent: true, status: http.StatusOK, body: []byte(body)}
	}
	o := &outcome{}
	if n := verifyServe(c, rs, obs, o); n != 0 {
		t.Fatalf("%d failures among correct answers: %v", n, o.notes)
	}
	obs[len(obs)/2].body = []byte(`{"dist":-1}`)
	obs[len(obs)/3].status = http.StatusServiceUnavailable
	if n := verifyServe(c, rs, obs, o); n != 2 {
		t.Fatalf("%d failures counted for two planted wrong answers", n)
	}
}

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	var l latencies
	for i := 30; i >= 1; i-- {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	pct, v, ok := l.tail()
	if !ok || v != 20*time.Millisecond || pct < 66 || pct > 67 {
		t.Fatalf("tail of 1..30 ms = %v at p%v (ok %v), want 20ms at p66.7", v, pct, ok)
	}
	if l.p50() != 15*time.Millisecond {
		t.Fatalf("p50 of 1..30 ms = %v", l.p50())
	}
	var few latencies
	few.Observe(time.Millisecond)
	if _, _, ok := few.tail(); ok {
		t.Fatal("a tail from one sample")
	}
}

func TestBestOfReadsEachOpsBestTime(t *testing.T) {
	w := newBestOf(time.Hour, 12)
	for rep := 3; rep >= 1; rep-- { // each op's best is its last repetition
		for i := range 12 {
			w.observe(i, time.Duration(rep*(i+1))*time.Millisecond)
		}
	}
	var o outcome
	if err := w.set(&o); err != nil {
		t.Fatal(err)
	}
	// Best times 1..12 ms: median 6 ms, tail 2 ms (ten beyond it), and a
	// pass of the list takes 78 ms.
	for name, want := range map[string]float64{"op_p50_ms": 6, "op_tail_ms": 2, "ops_per_s": 12 / 0.078} {
		if got := o.metrics[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if err := newBestOf(time.Hour, 12).set(&o); err == nil {
		t.Error("set succeeded with ops that never ran")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	op := tr.op("op.x")
	child := tr.begin("gted.Run")
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(op)
	self := tr.selfTimes()
	if self["op.x"]+self["gted.Run"] != tr.total("op.x") || self["gted.Run"] < 2*time.Millisecond {
		t.Fatalf("self times %v do not add up to the op's %v", self, tr.total("op.x"))
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored"))
}

// The traced run's pipeline must return Zhang–Shasha's distance and the
// engine's subproblem count on every kernel_shapes pair.
func TestKernelPipelineMatchesEngine(t *testing.T) {
	pairs := kernelPairs(5)
	e := batch.New(batch.WithWorkers(1))
	var trees []*tree.Tree
	for _, p := range pairs {
		trees = append(trees, p.f, p.g)
	}
	o := &outcome{}
	_, bad, subs := checkKernel(e, e.PrepareAll(trees), pairs, o)
	if slices.Contains(bad, true) || subs == 0 {
		t.Fatalf("pipeline and engine disagree (%d subproblems per pass): %v", subs, o.notes)
	}
}
