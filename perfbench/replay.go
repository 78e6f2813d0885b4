package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

// compileStats accumulates what the compile layers report.
type compileStats struct {
	compiles, oraqlCompiles      int
	minic, pipeline, passes      time.Duration
	aaQueries, aaHits, aaMisses  int64
	anHits, anMisses, oraqlQuery int64
}

// record adds one compilation's counters.
func (c *compileStats) record(cr *pipeline.CompileResult, withORAQL bool) {
	c.compiles++
	a := cr.AAStats()
	c.aaQueries += a.Queries
	c.aaHits += a.CacheHits
	c.aaMisses += a.CacheMisses
	for _, s := range cr.AnalysisStats() {
		c.anHits += s.Hits
		c.anMisses += s.Misses
	}
	if withORAQL {
		c.oraqlCompiles++
		s := cr.ORAQLStats()
		c.oraqlQuery += int64(s.Unique() + s.Cached())
	}
}

func (c *compileStats) report(r *result) {
	n := float64(max(c.compiles, 1))
	r.layer["minic.ms_per_compile"] = ms(c.minic) / n
	r.layer["pipeline.ms_per_compile"] = ms(c.pipeline) / n
	r.layer["passes.ms_per_compile"] = ms(c.passes) / n
	r.layer["aa.queries_per_compile"] = float64(c.aaQueries) / n
	r.layer["aa.cache_hit_ratio"] = ratio(float64(c.aaHits), float64(c.aaHits+c.aaMisses))
	r.layer["analysis.hit_ratio"] = ratio(float64(c.anHits), float64(c.anHits+c.anMisses))
	r.layer["oraql.queries_per_compile"] = ratio(float64(c.oraqlQuery), float64(c.oraqlCompiles))
}

// tracedCompile times minic.Compile and pipeline.CompileContext for
// one configuration under spans, with a child span for the pass time
// the pipeline itself reports (CompileResult.Timing). The pipeline
// span includes its own frontend run; minic.ms_per_compile gives that
// share.
func tracedCompile(tr *tracer, cs *compileStats, parent, op, lane int, cfg pipeline.Config) (*pipeline.CompileResult, error) {
	src := cfg.SourceFile
	if src == "" {
		src = cfg.Name + ".mc"
	}
	t := time.Now()
	id := tr.begin("minic.Compile", parent, op, lane)
	_, _, err := minic.Compile(src, cfg.Source, cfg.Frontend)
	tr.end(id)
	cs.minic += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: frontend: %w", cfg.Name, err)
	}
	t = time.Now()
	id = tr.begin("pipeline.CompileContext", parent, op, lane)
	cr, err := pipeline.CompileContext(context.Background(), cfg)
	tr.end(id)
	end := time.Now()
	cs.pipeline += end.Sub(t)
	if err != nil {
		return nil, err
	}
	// The pass time is reported, not observed, so the span's place
	// inside the pipeline span is nominal; only its length enters the
	// self-time split.
	pt := cr.Timing().Total()
	if d := end.Sub(t); pt > d {
		pt = d
	}
	tr.add("passes", id, op, lane, end.Add(-pt), end)
	cs.passes += pt
	cs.record(cr, cfg.ORAQL != nil)
	return cr, nil
}

// runStats accumulates the interpreter and verify layers.
type runStats struct {
	runs, checks       int
	run, verify        time.Duration
	instrs, allocBytes uint64
}

// replayCampaign re-executes one traced campaign layer by layer: the
// baseline, the fully optimistic attempt, every sequence the strategy
// tested and the final sequence are compiled, each distinct executable
// is run once (as the driver's exe-hash cache does) and verified
// against the baseline output.
func replayCampaign(tr *tracer, cs *compileStats, rs *runStats, op int, ref *configRef, seqs []oraql.Seq, final oraql.Seq) error {
	spec := ref.cfg.Spec()
	root := tr.begin("replay", 0, op, laneReplay)
	defer tr.end(root)

	type item struct {
		oraql bool
		seq   oraql.Seq
	}
	items := []item{{oraql: false}, {oraql: true}}
	seen := map[string]bool{"": true}
	for _, s := range append(seqs, final) {
		if k := s.String(); !seen[k] {
			seen[k] = true
			items = append(items, item{true, s})
		}
	}
	vs := verify.Spec{MaskPatterns: spec.Verify.MaskPatterns}
	ran := map[string]bool{}
	for _, it := range items {
		cfg := spec.Compile
		cfg.Name = spec.Name
		if it.oraql {
			o := spec.ORAQL
			o.Seq = it.seq
			cfg.ORAQL = &o
		}
		cr, err := tracedCompile(tr, cs, root, op, laneReplay, cfg)
		if err != nil {
			return fmt.Errorf("replay %s: %w", spec.Name, err)
		}
		hash := cr.ExeHash()
		if ran[hash] {
			continue
		}
		ran[hash] = true
		a0 := heapAllocBytes()
		t := time.Now()
		id := tr.begin("irinterp.Run", root, op, laneReplay)
		rr, runErr := irinterp.Run(cr.Program, spec.Run)
		tr.end(id)
		rs.run += time.Since(t)
		rs.allocBytes += heapAllocBytes() - a0
		rs.runs++
		var stdout string
		if rr != nil {
			stdout = rr.Stdout
			rs.instrs += uint64(rr.Instrs + rr.DeviceInstrs)
		}
		if !it.oraql {
			// The driver's reference is the baseline's own output.
			if runErr != nil {
				return fmt.Errorf("replay %s: baseline run: %w", spec.Name, runErr)
			}
			vs.References = []string{stdout}
			if err := vs.Compile(); err != nil {
				return err
			}
		}
		t = time.Now()
		id = tr.begin("verify.Spec.Check", root, op, laneReplay)
		vs.Check(stdout, runErr)
		tr.end(id)
		rs.verify += time.Since(t)
		rs.checks++
	}
	return nil
}

// traceProbeCold is probe-cold's traced run: the op list once
// untraced (the overhead baseline), then once through a strategy that
// spans every Prober.Test call, with each campaign replayed layer by
// layer afterwards.
func traceProbeCold(e *env, res *result, refs []*configRef, order []int) error {
	untraced, err := probeOps(e, res, refs, order, nil, nil, nil, nil)
	if err != nil {
		return err
	}
	var (
		st     probeStats
		cs     compileStats
		rs     runStats
		strats []*tracedStrategy
		testMS []float64
	)
	spec := func(op int, s *driver.BenchSpec) {
		ts := &tracedStrategy{tr: e.tr, op: op}
		ts.parent = e.tr.begin("driver.ProbeContext", 0, op, laneLive)
		s.Strategy = ts
		strats = append(strats, ts)
	}
	after := func(op int, ref *configRef, pr *driver.Result) error {
		ts := strats[len(strats)-1]
		e.tr.end(ts.parent)
		testMS = append(testMS, ts.testDurationMS...)
		return replayCampaign(e.tr, &cs, &rs, op, ref, ts.seqs, pr.FinalSeq)
	}
	traced, err := probeOps(e, res, refs, order, &st, nil, spec, after)
	if err != nil {
		return err
	}

	st.report(res)
	cs.report(res)
	n := float64(max(st.n, 1))
	res.props["input.bisect_share"] = ratio(float64(st.bisected), float64(st.n))
	res.layer["driver.test_ms_p50"] = quantile(testMS, 0.5)
	res.layer["irinterp.ms_per_run"] = ratio(ms(rs.run), float64(rs.runs))
	res.layer["irinterp.minstrs_per_s"] = ratio(float64(rs.instrs)/1e6, rs.run.Seconds())
	res.layer["irinterp.alloc_mb_per_run"] = ratio(float64(rs.allocBytes)/mb, float64(rs.runs))
	res.layer["verify.ms_per_check"] = ratio(ms(rs.verify), float64(rs.checks))
	res.layer["trace.overhead_ratio"] = ratio(quantile(traced, 0.5), quantile(untraced, 0.5))

	spans := e.tr.snapshot()
	lt := layerTimes(spans)
	var campaignWall, testCovered time.Duration
	children := map[int][]span{}
	for _, s := range spans {
		if s.name == "driver.Prober.Test" {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, s := range spans {
		if s.name == "driver.ProbeContext" {
			campaignWall += s.end - s.start
			testCovered += covered(s.start, s.end, children[s.id])
		}
	}
	res.layer["driver.self_ms_per_op"] = ms(campaignWall-testCovered) / n
	res.layer["trace.span_coverage"] = ratio(testCovered.Seconds(), campaignWall.Seconds())
	replayWall := lt["replay"].total
	res.layer["trace.irinterp_share"] = ratio(lt["irinterp.Run"].self.Seconds(), replayWall.Seconds())
	res.zeroLayers()

	res.lines = append(res.lines, "layer self time in the replay of the traced campaigns:")
	names := make([]string, 0, len(lt))
	for k := range lt {
		if k != "driver.ProbeContext" && k != "driver.Prober.Test" {
			names = append(names, k)
		}
	}
	sort.Slice(names, func(i, j int) bool { return lt[names[i]].self > lt[names[j]].self })
	for _, k := range names {
		res.lines = append(res.lines, fmt.Sprintf("  %-26s %6d spans %10.1f ms self %6.1f%%",
			k, lt[k].count, ms(lt[k].self), 100*ratio(lt[k].self.Seconds(), replayWall.Seconds())))
	}
	res.lines = append(res.lines,
		fmt.Sprintf("campaign wall %.1f ms: Prober.Test spans cover %.1f%%, driver self %.1f%%",
			ms(campaignWall), 100*ratio(testCovered.Seconds(), campaignWall.Seconds()),
			100*ratio((campaignWall-testCovered).Seconds(), campaignWall.Seconds())),
		fmt.Sprintf("irinterp share of probe-cold work (replay): %.1f%%", 100*res.layer["trace.irinterp_share"]),
		fmt.Sprintf("tracing overhead: traced op_ms_p50 %.1f ms vs untraced %.1f ms (ratio %.3f)",
			quantile(traced, 0.5), quantile(untraced, 0.5), res.layer["trace.overhead_ratio"]))
	return nil
}
