package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/load"
)

// metric names one printed metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (a test holds the two
// in step).
type metric struct{ name, unit string }

// endToEnd is the untraced run's metric set. Every workload reports
// every metric; see README.md for what an op is on each.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "share"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// layers are the repository's modules, in the order the layer table
// prints them. A span's layer is the part of its name before the dot.
var layers = []string{"tree", "strategy", "gted", "bounds", "index", "batch", "corpus", "server"}

// perLayer is the traced run's metric set.
var perLayer = []metric{
	{"strategy.ns_per_cell", "ns"},
	{"gted.ns_per_subproblem", "ns"},
	{"gted.subproblems", "count"},
	{"gted.row_cells", "count"},
	{"gted.bounded_ns_per_subproblem", "ns"},
	{"gted.pruned_share", "share"},
	{"index.candidates", "count"},
	{"index.probe_ms", "ms"},
	{"index.precision", "share"},
	{"bounds.lower_pruned", "count"},
	{"bounds.upper_accepted", "count"},
	{"bounds.exact_share", "share"},
	{"bounds.self_ms", "ms"},
	{"batch.prepare_us", "us"},
	{"batch.overhead_share", "share"},
	{"tree.parse_us", "us"},
	{"corpus.write_ms", "ms"},
	{"corpus.sync_ms", "ms"},
	{"corpus.wal_bytes_per_write", "B"},
	{"corpus.open_s", "s"},
	{"server.wire_ms", "ms"},
	{"server.shed", "count"},
	{"server.read_p50_ms", "ms"},
	{"server.write_p50_ms", "ms"},
	{"server.heavy_p50_ms", "ms"},
	{"load.generator_lag_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"tree.share", "share"},
	{"strategy.share", "share"},
	{"gted.share", "share"},
	{"bounds.share", "share"},
	{"index.share", "share"},
	{"batch.share", "share"},
	{"corpus.share", "share"},
	{"server.share", "share"},
}

// zeroLayerMetrics fills every per-layer metric with 0, so a workload
// only sets the ones its layers do work for.
func zeroLayerMetrics(o *outcome) {
	for _, m := range perLayer {
		o.set(m.name, 0)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies records an op class's latencies: a load.Hist for the
// distribution, and the samples themselves for exact order statistics.
// Hist's buckets are 3.1% wide, so a steady median read from them lands
// on the same bucket bound run after run; the end-to-end metrics need
// the measured value.
type latencies struct {
	load.Hist
	xs []time.Duration
}

func (l *latencies) Observe(d time.Duration) {
	l.Hist.Observe(d)
	l.xs = append(l.xs, d)
}

// rank returns the r-th smallest sample (1-based).
func (l *latencies) rank(r int) time.Duration {
	sort.Slice(l.xs, func(i, j int) bool { return l.xs[i] < l.xs[j] })
	return l.xs[r-1]
}

// p50 returns the nearest-rank median.
func (l *latencies) p50() time.Duration { return l.rank((len(l.xs) + 1) / 2) }

// tail returns the highest percentile that has at least ten samples
// beyond it, and its value. With ten samples or fewer there is none.
func (l *latencies) tail() (pct float64, v time.Duration, ok bool) {
	n := len(l.xs)
	if n <= 10 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), l.rank(n - 10), true
}

// bestOf records a closed-loop phase that repeats a fixed list of ops:
// every op's time, each op's best time over its repetitions, and the
// process's peak resident set in each of rssWindows windows.
//
// The end-to-end figures are read from the best times, as in best-of-N
// timing. On a shared host the same fixed work runs at one of a few
// speeds, switching within milliseconds: a 10,000-cell DP that takes
// 17 µs at best takes 36 µs at the median of a two-second window, and
// the windows' medians differ by 40%. An op's best repetition is the
// one no other tenant slowed; a slower program is slower in it too.
// The distribution over the list's ops — which differ in size and
// shape — is then what the median and the tail describe.
type bestOf struct {
	start time.Time
	phase time.Duration
	all   latencies       // every op's time, for the notes
	best  []time.Duration // per op of the list
	rw    int             // current RSS window
	peaks []float64       // peak RSS (MB) of each finished RSS window
	err   error
}

// rssWindows is how many windows the peak resident set is read over.
// batch's pooled workspaces are dropped by a garbage collection and
// regrown by the next pair, so the peak of a second of work depends on
// where collections fall; the 90th percentile over the windows is the
// peak the process comes back to, not a one-off overlap.
const rssWindows = 20

// newBestOf starts a phase over a list of ops ops long, returning
// set-up garbage to the OS so the peaks measure the phase alone.
func newBestOf(phase time.Duration, ops int) *bestOf {
	debug.FreeOSMemory()
	return &bestOf{start: time.Now(), phase: phase, best: make([]time.Duration, ops), err: resetPeakRSS()}
}

// observe records that op i of the list took d.
func (w *bestOf) observe(i int, d time.Duration) {
	w.all.Observe(d)
	if w.best[i] == 0 || d < w.best[i] {
		w.best[i] = d
	}
	if i := int(time.Since(w.start) * rssWindows / w.phase); i != w.rw {
		w.closeRSSWindow()
		w.rw = i
	}
}

// closeRSSWindow records the peak resident set since the last reset and
// resets it.
func (w *bestOf) closeRSSWindow() {
	rss, err := peakRSSMB("self")
	if err == nil {
		err = resetPeakRSS()
	}
	if w.err == nil {
		w.err = err
	}
	w.peaks = append(w.peaks, rss)
}

// set sets op_p50_ms and op_tail_ms to the median and the tail of the
// ops' best times, ops_per_s to the rate of one pass over the list at
// the best times, and peak_rss_mb to the 90th percentile of the RSS
// windows' peaks. It notes the best times' tail percentile and the
// figures of every op as measured.
func (w *bestOf) set(o *outcome) error {
	w.closeRSSWindow()
	if w.err != nil {
		return w.err
	}
	sort.Float64s(w.peaks)
	o.set("peak_rss_mb", w.peaks[(len(w.peaks)*9+9)/10-1])
	var best latencies
	var sum time.Duration
	for i, d := range w.best {
		if d == 0 {
			return fmt.Errorf("op %d of %d never ran", i, len(w.best))
		}
		best.Observe(d)
		sum += d
	}
	pct, tail, ok := best.tail()
	if !ok {
		return fmt.Errorf("%d ops in the list, too few for a tail with ten beyond it", len(w.best))
	}
	o.set("op_p50_ms", ms(best.p50()))
	o.set("op_tail_ms", ms(tail))
	o.set("ops_per_s", float64(len(w.best))/sum.Seconds())
	o.note("best of %.4g repetitions of each of %d ops: p50 %.4g ms, tail p%.4g %.4g ms, mean %.4g ms",
		float64(w.all.Count())/float64(len(w.best)), len(w.best), ms(best.p50()), math.Floor(pct*100)/100, ms(tail), ms(sum)/float64(len(w.best)))
	noteLatency(o, "every op as measured", &w.all)
	return nil
}

// noteLatency notes l's median, tail (with its percentile), mean, max and
// sample count.
func noteLatency(o *outcome, label string, l *latencies) {
	pct, tail, _ := l.tail()
	o.note("%s latency: p50 %.4g ms, tail p%.4g %.4g ms, mean %.4g ms, max %.4g ms, n=%d",
		label, ms(l.p50()), math.Floor(pct*100)/100, ms(tail), ms(l.Mean()), ms(l.Max()), l.Count())
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process;
// "self" names the calling process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%s/status", pid)
}

// resetPeakRSS resets the calling process's VmHWM to its current
// resident set (Linux's clear_refs "5").
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
