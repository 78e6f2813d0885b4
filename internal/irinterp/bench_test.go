package irinterp_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// optimisticBuild compiles c's fully optimistic ORAQL build: the
// empty response sequence, so every alias query the ORAQL pass sees is
// answered no-alias. Optimistic answers enable vectorization, so these
// are the vector-heavy programs a probe's tests run.
func optimisticBuild(c *apps.Config) (*pipeline.CompileResult, error) {
	spec := c.Spec()
	pc := spec.Compile
	pc.Name = c.ID
	opts := spec.ORAQL
	pc.ORAQL = &opts
	return pipeline.Compile(pc)
}

// BenchmarkInterp_AllConfigs runs every Fig. 4 configuration at
// OptLevel -1 and 3 and as its fully optimistic ORAQL build once per
// iteration (48 runs), compiled up front so only the interpreter is
// timed. It reports the interpreter's speed in Minstr/s (host plus
// device instructions), the wall time per run, the runs per iteration,
// and B/op for the whole 48-run set.
func BenchmarkInterp_AllConfigs(b *testing.B) {
	type job struct {
		name string
		prog *irinterp.Program
		opts irinterp.Options
	}
	var jobs []job
	for _, c := range apps.All() {
		for _, lvl := range []int{-1, 3} {
			pc := c.Spec().Compile
			pc.Name = c.ID
			pc.OptLevel = lvl
			cr, err := pipeline.Compile(pc)
			if err != nil {
				b.Fatalf("%s O%d: %v", c.ID, lvl, err)
			}
			jobs = append(jobs, job{fmt.Sprintf("%s/O%d", c.ID, lvl), cr.Program, c.Run})
		}
		cr, err := optimisticBuild(c)
		if err != nil {
			b.Fatalf("%s optimistic: %v", c.ID, err)
		}
		jobs = append(jobs, job{c.ID + "/optimistic", cr.Program, c.Run})
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var instrs int64
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			res, err := irinterp.Run(j.prog, j.opts)
			if err != nil {
				b.Fatalf("%s: %v", j.name, err)
			}
			instrs += res.Instrs + res.DeviceInstrs
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runs := float64(b.N * len(jobs))
	b.ReportMetric(float64(instrs)/elapsed.Seconds()/1e6, "Minstr/s")
	b.ReportMetric(elapsed.Seconds()*1e3/runs, "ms/run")
	b.ReportMetric(float64(len(jobs)), "runs/op")
}
