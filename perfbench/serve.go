package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/batch"
	"repro/corpus"
	"repro/internal/tree"
	"repro/server"
)

// serve_mixed's fixed settings. The mix, tau and k are tedload's
// defaults (cmd/tedload: distance 4, bounded 3, topk 2, join 0.2,
// mutate 1; tau 8; k 3) with joins left out and top-k's weight cut from
// 2 to 1/8, so that a block of 65 requests holds 32 exact reads, 24
// bounded reads, 8 writes and 1 top-k. At tedload's weight, top-k (about
// 62 ms of CPU each against about 1 ms for the mean point read, by the
// ROADMAP's concurrency-1 measurement) would take over nine tenths of
// the server's CPU and the read figures would measure top-k; at 1/8 it
// takes about as much CPU as all the point reads together. The
// reference rate is an eighth of the capacity this mix measured when
// the benchmark was written (see README.md), so the open loop runs well
// below saturation. BENCHMARK.json's workload line states the rate.
const (
	serveConns      = 2     // concurrent connections: one per core of the two-core target
	serveRefRate    = 125.0 // req/s of the open-loop reference phase
	serveRounds     = 5     // reference and saturated phases, alternating
	serveSaturation = 10000 // requests drawn for each saturated phase
	serveTau        = 8.0
	serveK          = 3
	serveAdHoc      = 24 // ad-hoc operand pool
	serveQueries    = 32 // top-k query pool

	// A block of the mix: slots [0, serveExact) are exact reads, then
	// bounded reads up to serveReads, writes up to serveBlock-1, and the
	// last slot is the top-k.
	serveExact = 32
	serveReads = 56
	serveBlock = 65
)

// sreq is one generated request: its wire form and, for the in-process
// replay, its decoded operands.
type sreq struct {
	class        string // read | write | heavy
	method, path string
	body         []byte
	due          time.Duration // offset from the phase start

	kind   string // bounded | exact | topk | put
	f, g   operand
	treeID int64 // put target
	text   string
}

// operand is a stored tree (id ≥ 0) or an ad-hoc tree (text).
type operand struct {
	id   int64
	text string
}

func (op operand) ref() server.TreeRef {
	if op.text != "" {
		return server.TreeRef{Tree: op.text}
	}
	id := op.id
	return server.TreeRef{ID: &id}
}

func (op operand) key() string {
	if op.text != "" {
		return op.text
	}
	return strconv.FormatInt(op.id, 10)
}

// serveInputs are the fixture and the request pools drawn from the seed.
type serveInputs struct {
	trees   []*tree.Tree
	adhoc   []string  // ad-hoc operands: variants of stored trees
	queries []operand // top-k queries
}

func newServeInputs(seed int64) *serveInputs {
	in := &serveInputs{trees: serveFixture(seed)}
	rng := rngFor(seed, "serve-pools")
	for i := 0; i < serveAdHoc; i++ {
		t := in.trees[rng.Intn(len(in.trees))]
		in.adhoc = append(in.adhoc, edit(rng, t, 1+rng.Intn(4)).String())
	}
	for i := 0; i < serveQueries; i++ {
		if i%2 == 0 {
			in.queries = append(in.queries, operand{id: int64(rng.Intn(len(in.trees)))})
		} else {
			in.queries = append(in.queries, operand{text: in.adhoc[rng.Intn(len(in.adhoc))]})
		}
	}
	return in
}

// stream draws a Poisson arrival sequence at rate req/s lasting dur; a
// rate of 0 draws serveSaturation requests all due at once. Every block
// of serveBlock requests holds, in seeded order, 56 point reads (exact
// and bounded distance, stored or ad-hoc first operand), 8 writes (PUT
// replacing a stored tree with a tree of the same content, so the corpus
// keeps its size and content and every read has one right answer) and
// one top-k.
func (in *serveInputs) stream(seed int64, phase string, rate float64, dur time.Duration) []sreq {
	rng := rngFor(seed, "serve-stream-"+phase)
	var rs []sreq
	var block []int
	next := func(due time.Duration) {
		if len(block) == 0 {
			block = rng.Perm(serveBlock)
		}
		rs = append(rs, in.request(rng, due, block[0]))
		block = block[1:]
	}
	if rate == 0 {
		for len(rs) < serveSaturation {
			next(0)
		}
		return rs
	}
	var at float64
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return rs
		}
		next(due)
	}
}

// request draws the request in slot (0 to serveBlock-1) of a block of the mix.
func (in *serveInputs) request(rng *rand.Rand, due time.Duration, slot int) sreq {
	stored := func() operand { return operand{id: int64(rng.Intn(len(in.trees)))} }
	r := sreq{due: due, method: http.MethodPost}
	switch {
	case slot < serveReads:
		r.class = "read"
		r.f, r.g = stored(), stored()
		if rng.Intn(2) == 0 {
			r.f = operand{id: -1, text: in.adhoc[rng.Intn(len(in.adhoc))]}
		}
		if slot < serveExact {
			r.kind, r.path = "exact", "/v1/distance"
			r.body = mustJSON(server.DistanceRequest{F: r.f.ref(), G: r.g.ref()})
		} else {
			r.kind, r.path = "bounded", "/v1/distance-bounded"
			r.body = mustJSON(server.DistanceBoundedRequest{F: r.f.ref(), G: r.g.ref(), Tau: serveTau})
		}
	case slot < serveBlock-1:
		r.class, r.kind, r.method = "write", "put", http.MethodPut
		r.treeID = int64(rng.Intn(len(in.trees)))
		r.text = in.trees[r.treeID].String()
		r.path = fmt.Sprintf("/v1/trees/%d", r.treeID)
		r.body = mustJSON(server.TreeRequest{Tree: r.text})
	default:
		r.class, r.kind, r.path = "heavy", "topk", "/v1/topk"
		r.f = in.queries[rng.Intn(len(in.queries))]
		r.body = mustJSON(server.TopKRequest{Query: r.f.ref(), K: serveK})
	}
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// sobs is one request's observation.
type sobs struct {
	sent    bool
	done    time.Duration // completion, from the phase start
	status  int
	body    []byte
	err     error
	latency time.Duration // completion minus due time
	service time.Duration // completion minus send
	lag     time.Duration // send minus the later of due time and connection free
}

// drive sends rs over serveConns connections: each connection takes the
// next request in due order, waits for its due time, and sends it. With
// due times spread out this is an open loop, and latency counts from the
// due time, so a stall's wait on later requests is measured; with every
// request due at once it is a closed loop. No request is taken after
// stop (0 = no limit). It returns the requests sent, their observations
// and the time until the last one completed.
func drive(client *http.Client, base string, rs []sreq, stop time.Duration) ([]sreq, []sobs, time.Duration) {
	obs := make([]sobs, len(rs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(rs) || (stop > 0 && time.Since(start) >= stop) {
					return
				}
				free := time.Since(start)
				due := rs[k].due
				if free < due {
					time.Sleep(due - free)
				}
				sent := time.Since(start)
				status, body, err := send(client, base, rs[k])
				done := time.Since(start)
				obs[k] = sobs{sent: true, status: status, body: body, err: err, done: done, latency: done - due,
					service: done - sent, lag: sent - max(due, free)}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var sentRs []sreq
	var sentObs []sobs
	for k, ob := range obs {
		if ob.sent {
			sentRs, sentObs = append(sentRs, rs[k]), append(sentObs, ob)
		}
	}
	return sentRs, sentObs, wall
}

func send(client *http.Client, base string, r sreq) (int, []byte, error) {
	req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// classHists splits a phase's latencies by request class.
func classHists(rs []sreq, obs []sobs) map[string]*latencies {
	hs := map[string]*latencies{"read": {}, "write": {}, "heavy": {}, "lag": {}}
	for k, ob := range obs {
		hs[rs[k].class].Observe(ob.latency)
		hs["lag"].Observe(ob.lag)
	}
	return hs
}

// tedd is one running daemon.
type tedd struct {
	client  *http.Client
	proc    *os.Process
	base    string
	exited  chan error
	logDone chan struct{}
}

// launch starts tedd with args and waits for its "serving on" log line,
// which names the address it listens on.
func launch(bin string, args ...string) (*tedd, error) {
	cmd := exec.Command(bin, args...)
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &tedd{proc: cmd.Process, exited: make(chan error, 1), logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
	}()
	a, ok := <-addr
	if !ok {
		<-d.logDone
		return nil, fmt.Errorf("tedd exited before serving: %v", cmd.Wait())
	}
	go func() {
		<-d.logDone // Wait closes the pipe: read it to the end first
		d.exited <- cmd.Wait()
	}()
	d.base = "http://" + a
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	return d, nil
}

// workDir makes the run's scratch directory under cfg.out (or the
// system temp dir) and returns a function removing it.
func workDir(cfg config) (string, func(), error) {
	dir, err := os.MkdirTemp(cfg.out, "serve-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// startTedd starts the daemon on a fresh copy of the fixture and waits
// until it answers /healthz. It returns the time from exec to healthy.
func startTedd(bin, fixture, dir string, rep int) (*tedd, time.Duration, error) {
	path := filepath.Join(dir, fmt.Sprintf("serve-%d.tedc", rep))
	data, err := os.ReadFile(fixture)
	if err != nil {
		return nil, 0, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, 0, err
	}
	os.Remove(path + ".wal")
	start := time.Now()
	d, err := launch(bin, "-corpus", path, "-addr", "127.0.0.1:0", "-workers", "1", "-checkpoint-interval", "0", "-no-checkpoint")
	if err != nil {
		return nil, 0, err
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("tedd not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the daemon to exit (killing it after
// 15s), and waits for its log reader.
func (d *tedd) stop() {
	d.client.CloseIdleConnections()
	d.proc.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.proc.Kill()
		<-d.exited
	}
	<-d.logDone
}

// runServe is serve_mixed: tedd as a subprocess over loopback, driven
// in serveRounds rounds, each an open-loop phase at the reference rate
// followed by a closed-loop phase on every connection that measures
// capacity; the phases split the budget evenly. An op is one point read
// at the reference rate. op_p50_ms and op_tail_ms are the lowest
// round's read median and read tail, and ops_per_s the saturated
// phases' requests per second of tedd's CPU time: on a shared host the
// whole reference phase's tail and the wall-time capacity spread too
// widely from run to run to carry a regression bound (see README.md).
func runServe(cfg config) (*outcome, error) {
	if cfg.tedd == "" {
		return nil, fmt.Errorf("--tedd is required")
	}
	dir, cleanup, err := workDir(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	in := newServeInputs(cfg.seed)
	fixture := filepath.Join(dir, "fixture.tedc")
	fc := corpus.New(corpus.WithHistogramIndex())
	for _, t := range in.trees {
		fc.Add(t)
	}
	if err := fc.SaveFile(fixture); err != nil {
		return nil, err
	}
	o := &outcome{}
	if cfg.trace {
		return o, traceServe(cfg, o, in, fixture, dir)
	}

	var d *tedd
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		if d, took, err = startTedd(cfg.tedd, fixture, dir, r); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	o.set("setup_s", median(setups))

	// The run alternates serveRounds reference phases with as many
	// saturated phases, so both sample the whole run.
	phase := cfg.budget() / (2 * serveRounds)
	var ref, all []sreq
	var refObs, allObs []sobs
	var p50s, tails, rates []float64
	var satN int
	var satCPU time.Duration // tedd's CPU time in the saturated phases
	for round := 0; round < serveRounds; round++ {
		rs, obs, _ := drive(d.client, d.base, in.stream(cfg.seed, fmt.Sprintf("ref-%d", round), serveRefRate, phase), 0)
		reads := classHists(rs, obs)["read"]
		pct, tail, ok := reads.tail()
		if !ok {
			return nil, fmt.Errorf("reference round %d: %d reads, too few for a tail with ten beyond it", round, len(reads.xs))
		}
		p50s, tails = append(p50s, ms(reads.p50())), append(tails, ms(tail))
		o.note("reference round %d: read p50 %.4g ms, tail p%.4g %.4g ms, n=%d", round, ms(reads.p50()),
			math.Floor(pct*100)/100, ms(tail), len(reads.xs))
		ref, refObs = append(ref, rs...), append(refObs, obs...)

		// Capacity: the connections kept busy back to back, which is the
		// highest rate the server sustains without a growing backlog.
		// It is counted per second of tedd's CPU time: on a shared
		// two-core host the wall rate also measures how soon the host
		// wakes an idle core after each ping-pong (see README.md).
		cpu0, err := procCPU(d.proc.Pid)
		if err != nil {
			return nil, err
		}
		sat, satObs, wall := drive(d.client, d.base, in.stream(cfg.seed, fmt.Sprintf("saturate-%d", round), 0, 0), phase)
		cpu1, err := procCPU(d.proc.Pid)
		if err != nil {
			return nil, err
		}
		if len(sat) == serveSaturation {
			return nil, fmt.Errorf("saturated round %d ran out of its %d requests", round, serveSaturation)
		}
		satN += len(sat)
		satCPU += cpu1 - cpu0
		rates = append(rates, float64(len(sat))/wall.Seconds())
		all, allObs = append(all, sat...), append(allObs, satObs...)
	}
	all, allObs = append(all, ref...), append(allObs, refObs...)
	o.note("saturated rounds: %.4g req/s; over all of them %d requests, %.4g per tedd CPU-second",
		rates, satN, float64(satN)/satCPU.Seconds())
	o.set("op_p50_ms", slices.Min(p50s))
	o.set("op_tail_ms", slices.Min(tails))
	o.set("ops_per_s", float64(satN)/satCPU.Seconds())
	hs := classHists(ref, refObs)
	noteLatency(o, "read (all reference rounds)", hs["read"])
	o.note("at %g req/s: write p50 %.4g ms, heavy p50 %.4g ms (n=%d, %d); generator lag p99 %.4g ms",
		serveRefRate, ms(hs["write"].p50()), ms(hs["heavy"].p50()),
		hs["write"].Count(), hs["heavy"].Count(), ms(hs["lag"].Quantile(0.99)))
	rss, err := peakRSSMB(strconv.Itoa(d.proc.Pid))
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", rss)

	c, err := corpus.LoadFile(fixture)
	if err != nil {
		return nil, err
	}
	o.attempted = int64(len(all))
	o.failed = verifyServe(c, all, allObs, o)
	o.set("success_rate", 1-ratio(float64(o.failed), float64(o.attempted)))
	return o, nil
}

// verifyServe checks every recorded response against the in-process
// engine on the fixture corpus (the writes leave its content unchanged)
// and returns the number of failed, refused or wrong answers.
func verifyServe(c *corpus.Corpus, rs []sreq, obs []sobs, o *outcome) int64 {
	e := c.Engine()
	c.Warm(e)
	want := map[string]string{}
	var failed int64
	for k, r := range rs {
		key := r.kind + "|" + r.f.key() + "|" + r.g.key() + "|" + r.text
		exp, ok := want[key]
		if !ok {
			exp = expected(c, e, r)
			want[key] = exp
		}
		got := rendered(r, obs[k])
		if got != exp {
			if failed < 3 {
				o.note("wrong answer to %s %s: got %q (err %v), want %q", r.method, r.path, got, obs[k].err, exp)
			}
			failed++
		}
	}
	return failed
}

// rendered normalizes a response for comparison: status and body, with
// a top-k response's timing-dependent stats dropped.
func rendered(r sreq, ob sobs) string {
	if ob.err != nil {
		return "error: " + ob.err.Error()
	}
	body := bytes.TrimSpace(ob.body)
	if r.kind == "topk" && ob.status == http.StatusOK {
		var resp server.TopKResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return "bad top-k body: " + err.Error()
		}
		resp.Stats = server.TopKStats{}
		body = mustJSON(resp)
	}
	return fmt.Sprintf("%d %s", ob.status, body)
}

// expected renders the response the server must give to r.
func expected(c *corpus.Corpus, e *batch.Engine, r sreq) string {
	resolve := func(op operand) *batch.PreparedTree {
		if op.text != "" {
			return c.PrepareQuery(e, tree.MustParseBracket(op.text))
		}
		p, _ := c.Prepared(e, corpus.ID(op.id))
		return p
	}
	var status int
	var v any
	switch r.kind {
	case "bounded":
		d, within := e.DistanceBounded(resolve(r.f), resolve(r.g), serveTau)
		status, v = http.StatusOK, server.DistanceBoundedResponse{Dist: d, Within: within}
	case "exact":
		status, v = http.StatusOK, server.DistanceResponse{Dist: e.Distance(resolve(r.f), resolve(r.g))}
	case "put":
		status, v = http.StatusOK, server.TreeResponse{ID: r.treeID}
	case "topk":
		ms, _ := c.TopKAcross(e, resolve(r.f), serveK)
		resp := server.TopKResponse{Matches: make([]server.TopKMatch, len(ms))}
		for i, m := range ms {
			resp.Matches[i] = server.TopKMatch{Tree: int64(m.Tree), Root: m.Root, Dist: m.Dist}
		}
		status, v = http.StatusOK, resp
	}
	return fmt.Sprintf("%d %s", status, mustJSON(v))
}

// procCPU returns the CPU time a process has used: the user and system
// time of all its threads, from /proc/<pid>/stat in ticks of 1/100 s.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields from the state on, after the parenthesized command name:
	// utime and stime are the 12th and 13th of them.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}
