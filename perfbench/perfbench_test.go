package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runBench runs the command in-process and decodes the JSON report on
// the last line of its stdout.
func runBench(t *testing.T, args ...string) (int, report, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-dir", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%v: no JSON report (exit %d): %v\nstdout:\n%s\nstderr:\n%s", args, code, err, stdout.String(), stderr.String())
	}
	return code, rep, stderr.String()
}

// TestSmoke runs every workload on two ops, timed and traced, and
// checks that every named metric is printed with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				code, rep, stderr := runBench(t, "-workload", w, "-seed", "3", "-ops", "2", "-trace", trace)
				if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
					t.Fatalf("exit %d, report %+v\n%s", code, rep, stderr)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedReferenceFails checks the checker: with corrupted
// references every op fails, fail_share > 0 and the command exits
// non-zero.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range []string{"probe-cold", "serve-compile"} {
		code, rep, _ := runBench(t, "-workload", w, "-seed", "1", "-ops", "1", "-corrupt-reference")
		if code == 0 || rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: exit %d, report %+v; want a failing run", w, code, rep)
		}
	}
}

// TestBenchmarkDefinition keeps BENCHMARK.json's metric and workload
// lists in step with what the command reports.
func TestBenchmarkDefinition(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{start: 0, end: 4}, {start: 2, end: 6}, {start: 8, end: 12}}
	if got := covered(1, 10, spans); got != 7 {
		t.Errorf("covered = %v, want 7", got)
	}
}
