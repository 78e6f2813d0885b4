// Command perfbench is the go-oraql benchmark. One process runs one
// named workload, generated from a seed, and prints its metrics as a
// single JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload probe-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics of a
// separate traced run, which also writes a Chrome trace-event file.
// --steady N repeats one workload in N fresh processes and prints each
// end-to-end metric's median, quartiles and spread against its bound.
// Every op's output is checked; any failed check makes the command
// exit with status 1. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to its run; BENCHMARK.json and
// README.md say why each was chosen.
var workloads = map[string]func(*env) (*result, error){
	"probe-cold":    probeCold,
	"probe-seeded":  probeSeeded,
	"serve-compile": serveCompile,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	steady   int
	// ops overrides the workload's op count (smoke runs); 0 sizes the
	// op list from seconds.
	ops int
	// corruptRef corrupts every reference output, so a run must report
	// failures (the checker's own test).
	corruptRef bool
	// dir holds the run's cache directories and trace files.
	dir string
}

// report is the JSON object printed as the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "nominal length of the timed phase; the op list is sized from it")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer mode instead of the timed run")
	fs.IntVar(&o.steady, "steady", 0, "repeat the workload in N fresh processes (seeds seed..seed+N-1) and print each end-to-end metric's spread")
	fs.IntVar(&o.ops, "ops", 0, "override the op count (0 sizes it from -seconds)")
	fs.BoolVar(&o.corruptRef, "corrupt-reference", false, "corrupt every reference output; the run must then fail its checks")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for cache directories and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.steady > 0 {
		return steady(o, stdout, stderr)
	}

	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(o.dir, o.workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{opts: o, work: work, log: stderr}
	if o.trace {
		e.tr = newTracer()
	}
	res, err := w(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(o.dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := e.tr.writeChrome(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "trace: %d spans written to %s\n", e.tr.len(), path)
	}
	return emit(o, res, stdout, stderr)
}

// emit prints the human summary to stderr and the JSON report to
// stdout; it returns the exit status.
func emit(o options, res *result, stdout, stderr io.Writer) int {
	defs := endToEnd
	values := res.e2e
	if o.trace {
		defs = perLayer
		values = res.layer
		for k, v := range res.props {
			values[k] = v
		}
	}
	rep := report{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	rep.Correct = res.failed == 0 && res.attempted > 0
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", o.workload, d.name)
			return 1
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	fmt.Fprintf(stderr, "%s seed=%d: %d ops attempted, %d failed (fail_share %.4f)\n",
		o.workload, o.seed, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	for i, f := range res.failures {
		if i == 5 {
			fmt.Fprintf(stderr, "  ... %d more\n", len(res.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "  FAIL %s\n", f)
	}
	for _, d := range defs {
		fmt.Fprintf(stderr, "  %-30s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	var extra []string
	for k := range res.notes {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(stderr, "  %-30s %14.4f (not in the JSON report)\n", k, res.notes[k])
	}
	if !o.trace {
		var props []string
		for k := range res.props {
			props = append(props, k)
		}
		sort.Strings(props)
		for _, k := range props {
			fmt.Fprintf(stderr, "  %-30s %14.4f (input property)\n", k, res.props[k])
		}
	}
	for _, line := range res.lines {
		fmt.Fprintln(stderr, line)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !rep.Correct {
		return 1
	}
	return 0
}
