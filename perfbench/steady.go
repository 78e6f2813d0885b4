package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady repeats one workload in o.steady fresh processes, seeds
// o.seed, o.seed+1, ..., and prints each end-to-end metric's median,
// quartiles and spread (interquartile range over median) next to the
// bound BENCHMARK.json gives it. It fails when a run fails.
func steady(o options, stdout, stderr io.Writer) int {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	for i := 0; i < o.steady; i++ {
		seed := o.seed + int64(i)
		args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", "0", "-dir", o.dir}
		if o.ops > 0 {
			args = append(args, "-ops", strconv.Itoa(o.ops))
		}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = &out
		cmd.Stderr = io.Discard
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || runErr != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: run failed: %v\n", seed, runErr)
			return 1
		}
		fmt.Fprintf(stderr, "seed %d: %s\n", seed, lines[len(lines)-1])
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}
	fmt.Fprintf(stdout, "%s, %d runs: median, quartiles, spread = (q3-q1)/median against the bound\n", o.workload, o.steady)
	for _, d := range endToEnd {
		v := values[d.name]
		q1, med, q3 := quartiles(v)
		spread := ratio(q3-q1, med)
		b := bounds[d.name]
		fmt.Fprintf(stdout, "  %-18s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %6.3f bound %.2f (%.0f%% of bound)\n",
			d.name, med, d.unit, q1, q3, spread, b, 100*ratio(spread, b))
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile by
// the method of Python's statistics.quantiles(values, n=4), whose
// default "exclusive" method clamps and may extrapolate on tiny
// samples.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// readBounds reads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read bounds: %w", err)
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("read bounds: %s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
