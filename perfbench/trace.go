package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one op share req;
// parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	req        int32
	parent     int32
	start, end time.Duration // since the tracer's origin
}

// tracer records spans in memory; dump writes them out when the run
// ends. A nil *tracer records nothing, so the traced and untraced runs
// share one code path. Not safe for concurrent use.
type tracer struct {
	origin time.Time
	spans  []span
	req    int32 // request id stamped on new spans
	cur    int32 // innermost open span, -1 at top level
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16), cur: -1}
}

// op opens the top-level span of a new request.
func (t *tracer) op(name string) int32 {
	if t == nil {
		return -1
	}
	t.req++
	return t.begin(name)
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: t.cur, start: time.Since(t.origin)})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin)
	t.cur = t.spans[i].parent
}

// selfTimes returns each span name's total self time: span durations
// minus the time covered by their child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self
}

// total returns the summed duration of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
		}
	}
	return sum
}

// count returns the number of spans named name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// layerShares sets <layer>.share for every layer: the layer's self time
// as a share of opTime, the time of the ops the spans cover, times scale.
// A scale below 1 says the spans cover that share of the op as the user
// sees it, and the server layer (HTTP, JSON, admission) the rest. It
// notes the table with the unattributed remainder (op spans' own self
// time).
func layerShares(o *outcome, t *tracer, opTime time.Duration, opName string, scale float64) {
	self := t.selfTimes()
	byLayer := map[string]float64{"server": (1 - scale) * float64(opTime) / scale}
	for name, d := range self {
		byLayer[strings.SplitN(name, ".", 2)[0]] += float64(d)
	}
	var sb strings.Builder
	for _, l := range layers {
		share := scale * ratio(byLayer[l], float64(opTime))
		o.set(l+".share", share)
		fmt.Fprintf(&sb, " %s %.3f", l, share)
	}
	fmt.Fprintf(&sb, " | unattributed %.3f", scale*ratio(float64(self[opName]), float64(opTime)))
	o.note("layer self-time shares of op time:%s", sb.String())
}

// dump writes the spans as tab-separated lines (req, id, parent, name,
// start_ns, end_ns) to dir/trace-<workload>-<seed>.tsv.
func (t *tracer) dump(dir, workload string, seed int64) (string, error) {
	if dir == "" {
		return "", nil
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
