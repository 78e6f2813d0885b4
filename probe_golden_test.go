package goraql

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/driver"
)

var updateProbeGolden = flag.Bool("update-probe-golden", false, "rewrite testdata/probe_golden.txt from the current driver")

const probeGoldenPath = "testdata/probe_golden.txt"

// probeGoldenWorkers are the worker counts every configuration is
// probed with; the observables are worker-count independent, so the
// lines of one configuration differ only in their w= tag.
var probeGoldenWorkers = []int{1, 2}

// digest is a short stable hash for observables too long to keep in
// clear.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

// probeLine renders the observables of one cold campaign: the final
// sequence, the verdict shape, the final build's identity, ORAQL and
// no-alias counters, the consumed test count, the guilty query
// indices, the final -stats registry, the final run's dynamic counts
// and its masked stdout. Effort counters that depend on speculation
// timing (compiles, run/cached split) are deliberately left out.
func probeLine(id string, workers int, res *driver.Result) string {
	fin := res.Final
	s := fin.Compile.ORAQLStats()
	var guilty []string
	for _, rec := range res.GuiltyQueries() {
		guilty = append(guilty, fmt.Sprint(rec.Index))
	}
	var stats bytes.Buffer
	fin.Compile.Host.Pass.Print(&stats)
	if fin.Compile.Device != nil {
		fin.Compile.Device.Pass.Print(&stats)
	}
	rr := fin.Run
	return fmt.Sprintf("%s w=%d full=%t seq=%d/%d:%s exe=%s oraql=%d/%d/%d/%d noalias=%d tests=%d guilty=%d:%s stats=%s instrs=%d cycles=%d dinstrs=%d dcycles=%d stdout=%s",
		id, workers, res.FullyOptimistic,
		len(res.FinalSeq), res.FinalSeq.CountPessimistic(), digest(res.FinalSeq.String()),
		digest(fin.Compile.ExeHash()),
		s.UniqueOptimistic, s.CachedOptimistic, s.UniquePessimistic, s.CachedPessimistic,
		fin.Compile.NoAliasTotal(), res.TestsRun+res.TestsCached,
		len(guilty), digest(strings.Join(guilty, ",")), digest(stats.String()),
		rr.Instrs, rr.Cycles, rr.DeviceInstrs, rr.DeviceCycles,
		digest(res.Spec.Verify.Mask(rr.Stdout)))
}

// TestProbeObservablesGolden pins what a cold probe campaign computes
// on every Fig. 4 configuration, for one and two workers. Changes to
// the driver, the pass pipeline or the alias-analysis substrate that
// are meant to be pure speedups must leave the file byte-identical;
// regenerate it with -update-probe-golden only for an intended change
// of probing results.
func TestProbeObservablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("probes every app config twice")
	}
	cfgs := apps.All()
	lines := make([][]string, len(cfgs))
	t.Run("probe", func(t *testing.T) {
		for i, c := range cfgs {
			i, c := i, c
			t.Run(c.ID, func(t *testing.T) {
				t.Parallel()
				for _, w := range probeGoldenWorkers {
					spec := c.Spec()
					spec.Workers = w
					res, err := driver.Probe(spec)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					lines[i] = append(lines[i], probeLine(c.ID, w, res))
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	var got strings.Builder
	for _, ls := range lines {
		for _, l := range ls {
			got.WriteString(l)
			got.WriteByte('\n')
		}
	}
	if *updateProbeGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(probeGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(probeGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-probe-golden to create it)", err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
