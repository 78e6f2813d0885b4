package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// Sizing of the probe op lists. A pass is one campaign on each of the
// 16 configurations, in a seeded order; the pass count scales with
// -seconds so that the timed phase lasts about that long on a 2-core
// host, but is fixed for given -seconds, so every run does identical
// work whatever the machine's speed.
const (
	coldPassSeconds   = 5.5 // one cold pass over all configurations
	seededPassSeconds = 0.4 // one warm reprobe pass
	warmupConfig      = "xsbench-seq"
)

// configRef is one Fig. 4 configuration with the reference it is
// checked against.
type configRef struct {
	cfg *apps.Config
	vs  verify.Spec // masks only
	// want is the masked stdout of the unoptimised (-O0) build.
	want string
	// finalSeq and exeHash are the first checked campaign's results;
	// every later campaign of the configuration must reproduce them.
	finalSeq, exeHash string
	seen              bool
}

// loadReferences builds and runs every configuration unoptimised
// (OptLevel -1, the build difftest uses as its oracle) and keeps its
// masked stdout. corrupt appends a line to every reference, so that
// every campaign must then fail its check.
func loadReferences(corrupt bool) ([]*configRef, error) {
	var refs []*configRef
	for _, c := range apps.All() {
		spec := c.Spec()
		pc := spec.Compile
		pc.Name = c.ID
		pc.OptLevel = -1
		cr, err := pipeline.Compile(pc)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.ID, err)
		}
		rr, err := irinterp.Run(cr.Program, c.Run)
		if err != nil {
			return nil, fmt.Errorf("reference %s: run: %w", c.ID, err)
		}
		ref := &configRef{cfg: c, vs: verify.Spec{MaskPatterns: c.Masks}}
		if err := ref.vs.Compile(); err != nil {
			return nil, fmt.Errorf("reference %s: masks: %w", c.ID, err)
		}
		ref.want = ref.vs.Mask(rr.Stdout)
		if corrupt {
			ref.want += "corrupted reference\n"
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// check compares one campaign with the reference and with the
// configuration's earlier campaigns; it returns "" when all agree.
func (r *configRef) check(pr *driver.Result) string {
	if pr.Final == nil || pr.Final.Run == nil || pr.Final.Compile == nil {
		return "campaign has no final run"
	}
	if got := r.vs.Mask(pr.Final.Run.Stdout); got != r.want {
		return "final output differs from the unoptimised build's"
	}
	if pr.FullyOptimistic != r.cfg.ExpectFullyOptimistic {
		return fmt.Sprintf("FullyOptimistic = %v, want %v", pr.FullyOptimistic, r.cfg.ExpectFullyOptimistic)
	}
	seq, hash := pr.FinalSeq.String(), pr.Final.Compile.ExeHash()
	if !r.seen {
		r.finalSeq, r.exeHash, r.seen = seq, hash, true
		return ""
	}
	if seq != r.finalSeq || hash != r.exeHash {
		return "FinalSeq or final exe hash differs from an earlier campaign"
	}
	return ""
}

// opOrder is the seeded op list: passes permutations of n indices,
// cut to ops entries when ops > 0.
func opOrder(seed int64, passes, n, ops int) []int {
	if ops > 0 {
		passes = (ops + n - 1) / n
	}
	r := rand.New(rand.NewSource(seed))
	var out []int
	for p := 0; p < passes; p++ {
		out = append(out, r.Perm(n)...)
	}
	if ops > 0 {
		out = out[:ops]
	}
	return out
}

// opSeconds is the length a probe op list is sized for. A traced run
// runs its list twice (untraced, then traced) and replays what it
// traced, so it sizes the list from a quarter of -seconds.
func opSeconds(e *env) int {
	if e.tr != nil {
		return max(1, e.opts.seconds/4)
	}
	return e.opts.seconds
}

func passes(seconds int, passSeconds float64) int {
	return max(1, int(float64(seconds)/passSeconds+0.5))
}

// probeStats accumulates driver.Result counters over campaigns.
type probeStats struct {
	n, bisected                                        int
	compiles, tests, disk, replayed, spec, waste, runs int
}

func (s *probeStats) add(pr *driver.Result) {
	s.n++
	if !pr.FullyOptimistic {
		s.bisected++
	}
	s.compiles += pr.Compiles
	s.tests += pr.TestsRun + pr.TestsCached
	s.disk += pr.TestsDisk
	s.replayed += pr.RunsReplayed
	s.spec += pr.TestsSpeculated
	s.waste += pr.TestsWasted
	// The interpreter runs the baseline and the final build unless the
	// run-replay tier answers, and every consumed test that was not
	// served by the exe-hash cache or from disk.
	s.runs += 2 - pr.RunsReplayed + pr.TestsRun
}

func (s *probeStats) report(r *result) {
	n := float64(max(s.n, 1))
	r.layer["driver.compiles_per_op"] = float64(s.compiles) / n
	r.layer["driver.tests_per_op"] = float64(s.tests) / n
	r.layer["driver.tests_disk_per_op"] = float64(s.disk) / n
	r.layer["driver.runs_replayed_per_op"] = float64(s.replayed) / n
	r.layer["driver.spec_launched_per_op"] = float64(s.spec) / n
	r.layer["driver.spec_useful_ratio"] = ratio(float64(s.spec-s.waste), float64(s.spec))
	r.layer["irinterp.runs_per_op"] = float64(s.runs) / n
}

// probeOps runs one campaign per op list entry, checks each, and
// returns the latencies in milliseconds. It marks a chunk of ph (which
// may be nil) after every pass over the configurations. spec
// customises each campaign's BenchSpec (cache handle, traced
// strategy); after runs once the campaign is done (replay, counters).
func probeOps(e *env, res *result, refs []*configRef, order []int, st *probeStats, ph *phase,
	spec func(op int, s *driver.BenchSpec), after func(op int, ref *configRef, pr *driver.Result) error) ([]float64, error) {
	lat := make([]float64, 0, len(order))
	for op, idx := range order {
		ref := refs[idx]
		s := ref.cfg.Spec()
		if spec != nil {
			spec(op, s)
		}
		t := time.Now()
		pr, err := driver.ProbeContext(context.Background(), s)
		lat = append(lat, ms(time.Since(t)))
		res.attempted++
		if err != nil {
			res.fail("op %d %s: %v", op, ref.cfg.ID, err)
			continue
		}
		if msg := ref.check(pr); msg != "" {
			res.fail("op %d %s: %s", op, ref.cfg.ID, msg)
		}
		if st != nil {
			st.add(pr)
		}
		if after != nil {
			if err := after(op, ref, pr); err != nil {
				return nil, err
			}
		}
		if (op+1)%len(refs) == 0 {
			ph.mark(len(refs))
		}
	}
	return lat, nil
}

// tailNote records the op latency p90 on stderr when the run has the
// samples for it.
func tailNote(res *result, lat []float64) {
	if v, ok := tailQuantile(lat, 0.9); ok {
		res.notes["op_ms_p90"] = v
	}
}

// probeCold: one op is one cold chunked campaign with no cache and the
// library-default worker count.
func probeCold(e *env) (*result, error) {
	refs, err := loadReferences(e.opts.corruptRef)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var setup []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if _, err := driver.ProbeContext(context.Background(), apps.ByID(warmupConfig).Spec()); err != nil {
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	order := opOrder(e.opts.seed, passes(opSeconds(e), coldPassSeconds), len(refs), e.opts.ops)
	if e.tr != nil {
		if err := traceProbeCold(e, res, refs, order); err != nil {
			return nil, err
		}
		return res, nil
	}
	var st probeStats
	ph := beginPhase()
	lat, err := probeOps(e, res, refs, order, &st, ph, nil, nil)
	if err != nil {
		return nil, err
	}
	ph.finish(res, len(order), lat, setup)
	tailNote(res, lat)
	res.props["input.bisect_share"] = ratio(float64(st.bisected), float64(st.n))
	return res, nil
}

// fillResult is what the cold fill recorded for one configuration.
type fillResult struct{ finalSeq, exeHash string }

// coldFill runs one campaign per configuration against a fresh cache
// directory and returns what each campaign concluded.
func coldFill(dir string, refs []*configRef) (map[string]fillResult, error) {
	st, err := diskcache.Open(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]fillResult{}
	for _, ref := range refs {
		s := ref.cfg.Spec()
		s.Cache = st
		pr, err := driver.ProbeContext(context.Background(), s)
		if err != nil {
			return nil, fmt.Errorf("cold fill %s: %w", ref.cfg.ID, err)
		}
		if pr.Final == nil || pr.Final.Compile == nil {
			return nil, fmt.Errorf("cold fill %s: campaign has no final build", ref.cfg.ID)
		}
		out[ref.cfg.ID] = fillResult{pr.FinalSeq.String(), pr.Final.Compile.ExeHash()}
	}
	return out, nil
}

// probeSeeded: set-up cold-fills a cache directory; one op then opens
// a fresh store handle on it, as a new `oraql probe -cache-dir`
// process would, and reprobes one configuration.
func probeSeeded(e *env) (*result, error) {
	refs, err := loadReferences(e.opts.corruptRef)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var setup []float64
	var dir string
	var fill map[string]fillResult
	for i := 0; i < setupReps; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(e.work, fmt.Sprintf("cache-%d", i))
		t := time.Now()
		if fill, err = coldFill(dir, refs); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	// Every reprobe must reproduce the cold fill's conclusions.
	for _, ref := range refs {
		f := fill[ref.cfg.ID]
		ref.finalSeq, ref.exeHash, ref.seen = f.finalSeq, f.exeHash, true
	}

	order := opOrder(e.opts.seed, passes(opSeconds(e), seededPassSeconds), len(refs), e.opts.ops)
	var (
		st      probeStats
		dc      diskcache.Counters
		openErr error
		roots   []int
	)
	openStore := func(s *driver.BenchSpec) {
		store, err := diskcache.Open(dir)
		if err != nil && openErr == nil {
			openErr = err
		}
		s.Cache = store
	}
	spec := func(op int, s *driver.BenchSpec) {
		id := e.tr.begin("diskcache.Open", 0, op, laneLive)
		openStore(s)
		e.tr.end(id)
		roots = append(roots, e.tr.begin("driver.ProbeContext", 0, op, laneLive))
	}
	after := func(op int, ref *configRef, pr *driver.Result) error {
		e.tr.end(roots[len(roots)-1])
		c := pr.Spec.Cache.Counters()
		dc.Hits += c.Hits
		dc.Misses += c.Misses
		dc.Puts += c.Puts
		return openErr
	}

	var untracedP50 float64
	if e.tr != nil {
		// The untraced pass gives the tracing-overhead baseline.
		lat, err := probeOps(e, res, refs, order, nil, nil, func(_ int, s *driver.BenchSpec) { openStore(s) }, nil)
		if err != nil {
			return nil, err
		}
		if openErr != nil {
			return nil, openErr
		}
		untracedP50 = quantile(lat, 0.5)
	}
	ph := beginPhase()
	lat, err := probeOps(e, res, refs, order, &st, ph, spec, after)
	if err != nil {
		return nil, err
	}
	if e.tr == nil {
		ph.finish(res, len(order), lat, setup)
		tailNote(res, lat)
		res.props["input.replayed_share"] = ratio(float64(st.replayed), float64(2*st.n))
		return res, nil
	}

	st.report(res)
	res.props["input.replayed_share"] = ratio(float64(st.replayed), float64(2*st.n))
	n := float64(max(st.n, 1))
	res.layer["diskcache.hits_per_op"] = float64(dc.Hits) / n
	res.layer["diskcache.misses_per_op"] = float64(dc.Misses) / n
	res.layer["diskcache.puts_per_op"] = float64(dc.Puts) / n
	res.layer["diskcache.hit_ratio"] = ratio(float64(dc.Hits), float64(dc.Hits+dc.Misses))
	if store, err := diskcache.Open(dir); err == nil {
		_, bytes := store.Usage()
		res.layer["diskcache.mb"] = float64(bytes) / mb
	}
	lt := layerTimes(e.tr.snapshot())
	if p := lt["driver.ProbeContext"]; p != nil {
		res.layer["driver.self_ms_per_op"] = ms(p.self) / n
	}
	res.layer["trace.overhead_ratio"] = ratio(quantile(lat, 0.5), untracedP50)
	res.zeroLayers()
	return res, nil
}

// tracedStrategy delegates to the registered chunked strategy and
// records a span around every Prober.Test call, plus the sequences
// tested, for the layer replay.
type tracedStrategy struct {
	tr             *tracer
	parent, op     int
	seqs           []oraql.Seq
	testDurationMS []float64
}

func (s *tracedStrategy) Name() string { return driver.Chunked.Name() }

func (s *tracedStrategy) Solve(p driver.Prober, n int) (oraql.Seq, error) {
	return driver.Chunked.Solve(&tracedProber{Prober: p, s: s}, n)
}

type tracedProber struct {
	driver.Prober
	s *tracedStrategy
}

func (p *tracedProber) Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) {
	id := p.s.tr.begin("driver.Prober.Test", p.s.parent, p.s.op, laneLive)
	ok, err := p.Prober.Test(seq, specs...)
	p.s.tr.end(id)
	p.s.seqs = append(p.s.seqs, seq.Clone())
	p.s.testDurationMS = append(p.s.testDurationMS, ms(p.s.tr.duration(id)))
	return ok, err
}
