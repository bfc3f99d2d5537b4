// Command perfbench is the repository's benchmark. One invocation runs
// one named workload against the public functions of the repository's
// modules, checks every answer outside the timed phase, and prints the
// workload's metrics; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload kernel_shapes --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 a separate traced run records spans around
// the calls into each layer and reports the per-layer metrics. See
// README.md for the workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tedd     string // tedd binary (serve_mixed)
	out      string // directory for scratch files and span dumps ("" = a temp dir, no dumps)
}

// budget is the timed phase's length.
func (c config) budget() time.Duration { return time.Duration(c.seconds) * time.Second }

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	// invalid lists reasons the run cannot be trusted even when every
	// answer was right (a filter stage that decided nothing, say).
	invalid []string
	metrics map[string]float64
	// notes are human-readable lines printed before the result line.
	notes []string
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"kernel_shapes": runKernel,
	"join_clusters": runJoin,
	"serve_mixed":   runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: kernel_shapes | join_clusters | serve_mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 30, "length of the timed phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&cfg.tedd, "tedd", "", "tedd binary to serve from (serve_mixed)")
	fs.StringVar(&cfg.out, "out", "", "directory for scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workload == "all" && cfg.trace && cfg.seconds >= 1 {
		return layerTable(cfg, stdout, stderr)
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s, or all with --trace 1), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), " | "))
		return 2
	}
	o, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := report(cfg, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// layerTable makes the traced run of every workload and prints the
// layers' self-time shares side by side: each layer should do most of
// its work in its home workload and little or none in another.
func layerTable(cfg config, stdout, stderr io.Writer) int {
	names := workloadNames()
	shares := map[string][]float64{}
	for _, name := range names {
		c := cfg
		c.workload = name
		o, err := workloads[name](c)
		if err == nil && (o.failed > 0 || len(o.invalid) > 0) {
			err = fmt.Errorf("%d of %d ops failed; %s", o.failed, o.attempted, strings.Join(o.invalid, "; "))
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		for _, l := range layers {
			shares[l] = append(shares[l], o.metrics[l+".share"])
		}
	}
	fmt.Fprintf(stdout, "%-10s", "layer")
	for _, name := range names {
		fmt.Fprintf(stdout, " %14s", name)
	}
	fmt.Fprintln(stdout)
	for _, l := range layers {
		fmt.Fprintf(stdout, "%-10s", l)
		for _, v := range shares[l] {
			fmt.Fprintf(stdout, " %14.3f", v)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the human-readable table and returns the result line.
// It fails when the workload did not fill every metric of the run's set,
// or filled one outside it.
func report(cfg config, o *outcome, w io.Writer) (string, error) {
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	res := resultJSON{
		Correct:   o.failed == 0 && len(o.invalid) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, why := range o.invalid {
		fmt.Fprintln(w, "# INVALID: "+why)
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "# %s seed %d: %d attempted, %d failed (error_rate %.4g)\n", cfg.workload, cfg.seed, o.attempted, o.failed, errRate)
	for _, m := range set {
		v, ok := o.metrics[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", m.name, v, m.unit)
	}
	if len(o.metrics) != len(set) {
		return "", fmt.Errorf("workload reported %d metrics, the set has %d", len(o.metrics), len(set))
	}
	b, err := json.Marshal(res)
	return string(b), err
}
