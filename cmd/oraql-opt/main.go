// Command oraql-opt is the single-compilation tool (the opt/clang
// analogue): it compiles one minic source file through the -O3
// pipeline with an optional ORAQL response sequence and prints IR,
// statistics, and ORAQL dump output.
//
// Usage:
//
//	oraql-opt prog.mc [-opt-aa-seq "1 0 1"] [-opt-aa-seq @file]
//	         [-opt-aa-target gpu] [-opt-aa-dump-pessimistic ...]
//	         [-stats] [-time-passes] [-print-ir] [-debug-pass] [-run] [-O1]
//	         [-cache-dir DIR] [-cache-max-mb N]
//
// Exit codes: 0 success, 1 operational failure, 2 usage error. With
// -json, failures are printed as the shared JSON error envelope.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"

	// Registered for -list: app configs + strategies and grammar
	// profiles; single compilations only consume the AA registries.
	_ "github.com/oraql/go-oraql/internal/apps"
	_ "github.com/oraql/go-oraql/internal/progen"
)

func main() {
	argv := os.Args[1:]
	err := run(argv, os.Stdout, os.Stderr)
	os.Exit(cliutil.Report(os.Stderr, "oraql-opt", cliutil.WantsJSON(argv), err))
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oraql-opt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seqStr := fs.String("opt-aa-seq", "", `ORAQL response sequence ("1 0 ...", or @file); empty enables the pass fully optimistic`)
	useORAQL := fs.Bool("opt-aa", false, "enable the ORAQL pass (implied by -opt-aa-seq/-opt-aa-dump-*)")
	target := fs.String("opt-aa-target", "", "restrict ORAQL to modules whose target contains this substring")
	dumpFirst := fs.Bool("opt-aa-dump-first", false, "dump first (non-cached) queries")
	dumpCached := fs.Bool("opt-aa-dump-cached", false, "dump cached queries")
	dumpOpt := fs.Bool("opt-aa-dump-optimistic", false, "dump optimistically answered queries")
	dumpPess := fs.Bool("opt-aa-dump-pessimistic", false, "dump pessimistically answered queries")
	model := fs.String("model", "seq", "parallel model (seq|openmp|tasks|mpi|offload)")
	fortran := fs.Bool("fortran", false, "Fortran dialect")
	views := fs.Bool("views", false, "boxed heap arrays (Kokkos/Thrust views)")
	o1 := fs.Bool("O1", false, "use the reduced O1 pipeline")
	o0 := fs.Bool("O0", false, "frontend output only (no optimization)")
	full := fs.Bool("full-aa", false, "enable the CFL points-to analyses in the chain (same as -aa-chain full)")
	aaChain := fs.String("aa-chain", "", `alias-analysis chain: a registered name ("default", "full") or a comma-separated analysis list (see -list)`)
	stats := fs.Bool("stats", false, "print pass statistics (-mllvm -stats analogue)")
	timePasses := fs.Bool("time-passes", false, "print per-pass wall time, run counts, and analysis cache counters")
	noAnalysisCache := fs.Bool("disable-analysis-cache", false, "recompute every analysis on every pass run (force-invalidate mode)")
	compileWorkers := fs.Int("compile-workers", 0, "per-function pass parallelism (0 = GOMAXPROCS, 1 = sequential; output is identical for every value)")
	cacheDir := fs.String("cache-dir", "", "persistent compile cache directory shared across processes (empty = no persistence; output is byte-identical warm or cold)")
	cacheMaxMB := fs.Int("cache-max-mb", 0, "size cap for -cache-dir in MiB before GC evicts cold entries (0 = 512)")
	printIR := fs.Bool("print-ir", false, "print optimized IR")
	debugPass := fs.Bool("debug-pass", false, "print pass executions (-debug-pass=Executions analogue)")
	runProg := fs.Bool("run", false, "run the compiled program on the simulated machine")
	ranks := fs.Int("ranks", 1, "simulated MPI ranks for -run")
	fs.Bool("json", false, "emit failures as the shared JSON error envelope")

	if len(argv) >= 1 && argv[0] == "-list" {
		cliutil.PrintRegistries(stdout)
		return nil
	}
	if len(argv) < 1 {
		fs.Usage()
		return cliutil.Usagef("missing input file (or -list)")
	}
	file := argv[0]
	if err := fs.Parse(argv[1:]); err != nil {
		return cliutil.WrapUsage(err)
	}

	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}

	models := map[string]minic.Model{"seq": minic.ModelSeq, "openmp": minic.ModelOpenMP,
		"tasks": minic.ModelTasks, "mpi": minic.ModelMPI, "offload": minic.ModelOffload}
	m, ok := models[*model]
	if !ok {
		return cliutil.Usagef("unknown model %q", *model)
	}
	d := minic.DialectC
	if *fortran {
		d = minic.DialectFortran
	}

	cfg := pipeline.Config{
		Name: file, Source: string(src), SourceFile: file,
		Frontend:             minic.Options{Dialect: d, Model: m, Views: *views},
		FullAAChain:          *full,
		AAChain:              *aaChain,
		DebugPassExec:        *debugPass,
		DisableAnalysisCache: *noAnalysisCache,
		CompileWorkers:       *compileWorkers,
	}
	if strings.HasSuffix(file, ".ir") {
		// Textual-IR input: bypass the frontend.
		mod, err := irtext.Parse(string(src))
		if err != nil {
			return err
		}
		cfg.Module = mod
	}
	if *o1 {
		cfg.OptLevel = 1
	}
	if *o0 {
		cfg.OptLevel = -1
	}
	cache, err := cliutil.OpenCache(*cacheDir, *cacheMaxMB)
	if err != nil {
		return err
	}
	cfg.DiskCache = cache
	dump := oraql.DumpFlags{First: *dumpFirst, Cached: *dumpCached, Optimistic: *dumpOpt, Pessimistic: *dumpPess}
	if *useORAQL || *seqStr != "" || dump.Any() {
		seq, err := oraql.ParseSeq(*seqStr)
		if err != nil {
			return cliutil.WrapUsage(err)
		}
		cfg.ORAQL = &oraql.Options{Seq: seq, Target: *target, Dump: dump, Out: stderr}
	}

	cr, err := pipeline.Compile(cfg)
	if err != nil {
		return err
	}

	if *printIR {
		fmt.Fprint(stdout, cr.Host.Module.String())
		if cr.Device != nil {
			fmt.Fprint(stdout, cr.Device.Module.String())
		}
	}
	if *stats {
		fmt.Fprintln(stdout, "=== host statistics ===")
		cr.Host.Pass.Print(stdout)
		if cr.Device != nil {
			fmt.Fprintln(stdout, "=== device statistics ===")
			cr.Device.Pass.Print(stdout)
		}
		s := cr.ORAQLStats()
		if cfg.ORAQL != nil {
			fmt.Fprintf(stdout, "%8d oraql - Number of unique optimistic responses\n", s.UniqueOptimistic)
			fmt.Fprintf(stdout, "%8d oraql - Number of cached optimistic responses\n", s.CachedOptimistic)
			fmt.Fprintf(stdout, "%8d oraql - Number of unique pessimistic responses\n", s.UniquePessimistic)
			fmt.Fprintf(stdout, "%8d oraql - Number of cached pessimistic responses\n", s.CachedPessimistic)
		}
	}
	if *timePasses {
		cr.Timing().Print(stdout, cr.AnalysisStats())
	}
	fmt.Fprintf(stderr, "exe hash: %s\n", cr.ExeHash())
	if cache != nil {
		c := cache.Counters()
		fmt.Fprintf(stderr, "disk cache: %d function hits, %d store hits / %d misses, %d puts\n",
			cr.DiskHits(), c.Hits, c.Misses, c.Puts)
	}
	if *runProg {
		rr, err := irinterp.Run(cr.Program, irinterp.Options{NumRanks: *ranks})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rr.Stdout)
		fmt.Fprintf(stderr, "[%d instructions, %d cycles]\n", rr.Instrs, rr.Cycles)
	}
	return nil
}
