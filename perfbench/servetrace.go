package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/batch"
	"repro/corpus"
	"repro/internal/tree"
	"repro/server"
)

// traceServe is serve_mixed's traced run. It drives tedd with the
// reference phase's request stream, then replays the same stream in
// process, one request at a time, against WAL-backed copies of the
// fixture: once untraced and once recording spans around the calls into
// tree, corpus and batch. The HTTP run's service time minus the
// in-process replay's is the server layer (wire, JSON, admission).
func traceServe(cfg config, o *outcome, in *serveInputs, fixture, dir string) error {
	zeroLayerMetrics(o)
	d, _, err := startTedd(cfg.tedd, fixture, dir, 0)
	if err != nil {
		return err
	}
	ref, obs, _ := drive(d.client, d.base, in.stream(cfg.seed, "ref", serveRefRate, cfg.budget()/2), 0)
	var stats server.StatsResponse
	err = getJSON(d, "/v1/stats", &stats)
	d.stop()
	if err != nil {
		return err
	}
	hs := classHists(ref, obs)
	o.set("server.read_p50_ms", ms(hs["read"].p50()))
	o.set("server.write_p50_ms", ms(hs["write"].p50()))
	o.set("server.heavy_p50_ms", ms(hs["heavy"].p50()))
	o.set("server.shed", float64(stats.Shed))
	o.set("load.generator_lag_ms", ms(hs["lag"].Quantile(0.99)))
	check, err := corpus.LoadFile(fixture)
	if err != nil {
		return err
	}
	o.attempted = int64(len(ref))
	o.failed = verifyServe(check, ref, obs, o)

	var opens []float64
	open := func(rep int) (*corpus.Corpus, error) {
		path := filepath.Join(dir, fmt.Sprintf("replay-%d.tedc", rep))
		data, err := os.ReadFile(fixture)
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := corpus.Open(path, corpus.WithHistogramIndex())
		opens = append(opens, time.Since(start).Seconds())
		return c, err
	}
	// Two WAL-backed copies, one replayed untraced and one traced,
	// request by request in turn so drift hits both alike; a third open
	// only times corpus.Open once more.
	var cs [3]*corpus.Corpus
	var es [2]*batch.Engine
	for rep := range cs {
		if cs[rep], err = open(rep); err != nil {
			return err
		}
		defer cs[rep].Close() // a no-op after the explicit Close below
		if rep < 2 {
			es[rep] = cs[rep].Engine()
			cs[rep].Warm(es[rep])
		}
	}
	tr := newTracer()
	var plainReads latencies
	var plainT, tracedT time.Duration
	walBefore := fileSize(filepath.Join(dir, "replay-1.tedc.wal"))
	for _, r := range ref {
		t0 := time.Now()
		if err := replay(nil, cs[0], es[0], r); err != nil {
			return err
		}
		t1 := time.Now()
		if err := replay(tr, cs[1], es[1], r); err != nil {
			return err
		}
		tracedT += time.Since(t1)
		plainT += t1.Sub(t0)
		if r.class == "read" {
			plainReads.Observe(t1.Sub(t0))
		}
	}
	walBytes := fileSize(filepath.Join(dir, "replay-1.tedc.wal")) - walBefore
	for _, c := range cs {
		if err := c.Close(); err != nil {
			return err
		}
	}
	var httpService time.Duration
	var httpReads latencies
	for k, ob := range obs {
		httpService += ob.service
		if ref[k].class == "read" {
			httpReads.Observe(ob.service)
		}
	}
	writes := tr.count("corpus.Replace")
	o.set("server.wire_ms", ms(httpReads.p50()-plainReads.p50()))
	o.set("tree.parse_us", float64(tr.total("tree.ParseBracket").Microseconds())/float64(max(1, tr.count("tree.ParseBracket"))))
	o.set("batch.prepare_us", float64(tr.total("corpus.PrepareQuery").Microseconds())/float64(max(1, tr.count("corpus.PrepareQuery"))))
	o.set("corpus.write_ms", ms(tr.total("corpus.Replace"))/float64(max(1, writes)))
	o.set("corpus.sync_ms", ms(tr.total("corpus.Sync"))/float64(max(1, writes)))
	o.set("corpus.wal_bytes_per_write", float64(walBytes)/float64(max(1, writes)))
	o.set("corpus.open_s", median(opens))
	o.set("trace.overhead_share", ratio(float64(tracedT), float64(plainT))-1)
	layerShares(o, tr, tracedT, "op.request", ratio(float64(plainT), float64(httpService)))
	o.note("%d requests: HTTP service %v, in-process replay %v, traced replay %v; %d writes, %d WAL bytes",
		len(ref), httpService.Round(time.Millisecond), plainT.Round(time.Millisecond), tracedT.Round(time.Millisecond), writes, walBytes)
	path, err := tr.dump(cfg.out, cfg.workload, cfg.seed)
	if path != "" {
		o.note("spans: %s (%d)", path, len(tr.spans))
	}
	return err
}

// replay does in process what tedd's handler does for r, minus HTTP and
// JSON, with spans around each call into a layer.
func replay(tr *tracer, c *corpus.Corpus, e *batch.Engine, r sreq) error {
	op := tr.op("op.request")
	defer tr.end(op)
	switch r.kind {
	case "bounded":
		f, g := resolveSpan(tr, c, e, r.f), resolveSpan(tr, c, e, r.g)
		s := tr.begin("batch.DistanceBounded")
		e.DistanceBounded(f, g, serveTau)
		tr.end(s)
	case "exact":
		f, g := resolveSpan(tr, c, e, r.f), resolveSpan(tr, c, e, r.g)
		s := tr.begin("batch.Distance")
		e.Distance(f, g)
		tr.end(s)
	case "topk":
		q := resolveSpan(tr, c, e, r.f)
		s := tr.begin("batch.TopKAcross") // corpus.TopKAcross is a thin adapter over batch's
		c.TopKAcross(e, q, serveK)
		tr.end(s)
	case "put":
		t := parseSpan(tr, r.text)
		s := tr.begin("corpus.Replace")
		c.Replace(corpus.ID(r.treeID), t)
		tr.end(s)
		s = tr.begin("corpus.Sync")
		defer tr.end(s)
		return c.Sync()
	}
	return nil
}

func resolveSpan(tr *tracer, c *corpus.Corpus, e *batch.Engine, op operand) *batch.PreparedTree {
	if op.text != "" {
		t := parseSpan(tr, op.text)
		s := tr.begin("corpus.PrepareQuery")
		defer tr.end(s)
		return c.PrepareQuery(e, t)
	}
	s := tr.begin("corpus.Prepared")
	defer tr.end(s)
	p, _ := c.Prepared(e, corpus.ID(op.id))
	return p
}

func parseSpan(tr *tracer, text string) *tree.Tree {
	s := tr.begin("tree.ParseBracket")
	defer tr.end(s)
	return tree.MustParseBracket(text)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func getJSON(d *tedd, path string, into any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}
