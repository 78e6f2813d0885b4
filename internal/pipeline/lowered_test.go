package pipeline_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
)

// loweredCases are the compilations the clone tests cover: every Fig. 4
// configuration with its ORAQL target, and a progen corpus rotated
// through the sequential, OpenMP and offload lowerings.
func loweredCases() []pipeline.Config {
	var out []pipeline.Config
	for _, c := range apps.All() {
		spec := c.Spec()
		cfg := spec.Compile
		cfg.Name = c.ID
		o := spec.ORAQL
		cfg.ORAQL = &o
		out = append(out, cfg)
	}
	models := []minic.Model{minic.ModelSeq, minic.ModelOpenMP, minic.ModelOffload}
	for seed := int64(1); seed <= 64; seed++ {
		p := progen.Generate(seed, progen.Options{})
		out = append(out, pipeline.Config{
			Name: fmt.Sprintf("seed%d", seed), Source: p.Source, SourceFile: p.FileName,
			Frontend: minic.Options{Model: models[int(seed)%len(models)]},
			ORAQL:    &oraql.Options{},
		})
	}
	return out
}

// fingerprint flattens a compilation's byte-identity outputs: exe hash,
// optimized IR, -stats and timing order (snapshot), and the ORAQL
// query records.
func fingerprint(t *testing.T, cr *pipeline.CompileResult) string {
	var sb strings.Builder
	sb.WriteString(snapshot(t, cr))
	sb.WriteString("=== oraql records ===\n")
	for _, r := range cr.Records() {
		a, b := r.LocDescriptions()
		fmt.Fprintf(&sb, "%d %t %s | %s | %s %s %d\n", r.Index, r.Optimistic, a, b, r.Pass, r.Func, r.CacheHits)
	}
	return sb.String()
}

// TestLoweredCloneMatchesFrontend checks that compiling a clone of the
// campaign's lowered modules is indistinguishable from lowering the
// source for every compilation: the clone prints like its original,
// the optimized result (exe hash, IR, -stats, ORAQL records) is
// byte-identical with and without ORAQL, and the pristine modules are
// left untouched by the compilations of their clones.
func TestLoweredCloneMatchesFrontend(t *testing.T) {
	for _, cfg := range loweredCases() {
		l := &pipeline.Lowered{}
		for _, o := range []*oraql.Options{nil, cfg.ORAQL} {
			direct := cfg
			direct.ORAQL = o
			viaClone := direct
			viaClone.Lowered = l
			want, err := pipeline.Compile(direct)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			got, err := pipeline.Compile(viaClone)
			if err != nil {
				t.Fatalf("%s via Lowered: %v", cfg.Name, err)
			}
			if g, w := fingerprint(t, got), fingerprint(t, want); g != w {
				t.Errorf("%s (oraql %t): compiling the clone differs from compiling the source", cfg.Name, o != nil)
			}
		}
		fresh, freshDev, err := minic.Compile(cfg.SourceFile, cfg.Source, cfg.Frontend)
		if err != nil {
			t.Fatal(err)
		}
		host, dev := pipeline.LoweredModules(l)
		if host.String() != fresh.String() || (dev == nil) != (freshDev == nil) ||
			(dev != nil && dev.String() != freshDev.String()) {
			t.Errorf("%s: compiling clones changed the pristine modules", cfg.Name)
		}
		for i, m := range ir.CloneModules(fresh, freshDev) {
			orig := []*ir.Module{fresh, freshDev}[i]
			if (m == nil) != (orig == nil) || (m != nil && m.String() != orig.String()) {
				t.Errorf("%s: target %d: clone prints differently", cfg.Name, i)
			}
		}
	}
}

// TestLoweredRejectsAnotherSource checks that a Lowered is bound to the
// source it first lowered.
func TestLoweredRejectsAnotherSource(t *testing.T) {
	cases := loweredCases()
	a, b := cases[0], cases[1]
	l := &pipeline.Lowered{}
	a.Lowered, b.Lowered = l, l
	if _, err := pipeline.Compile(a); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Compile(b); err == nil || !strings.Contains(err.Error(), "another source") {
		t.Fatalf("compiling a second source through one Lowered: err = %v", err)
	}
}

// TestLoweredConcurrentCompiles compiles one offload configuration
// through one Lowered from several goroutines at once, as a campaign's
// speculative workers do: one of them lowers, all of them clone, and
// every result matches a direct compilation.
func TestLoweredConcurrentCompiles(t *testing.T) {
	var cfg pipeline.Config
	for _, c := range loweredCases() {
		if c.Frontend.Model == minic.ModelOffload {
			cfg = c
			break
		}
	}
	want, err := pipeline.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fingerprint(t, want)
	cfg.Lowered = &pipeline.Lowered{}
	const n = 8
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr, err := pipeline.Compile(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = fingerprint(t, cr)
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != wantFP {
			t.Errorf("compilation %d through the shared Lowered differs from a direct one", i)
		}
	}
}

// TestLoweredIsLazy checks that a compilation answered by the
// translation-unit cache never runs the frontend: a campaign whose
// compilations all hit the cache lowers nothing.
func TestLoweredIsLazy(t *testing.T) {
	store, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := loweredCases()[0]
	cfg.ORAQL = nil
	cfg.DiskCache = store
	if _, err := pipeline.Compile(cfg); err != nil { // fills the cache
		t.Fatal(err)
	}
	l := &pipeline.Lowered{}
	cfg.Lowered = l
	if _, err := pipeline.Compile(cfg); err != nil {
		t.Fatal(err)
	}
	if host, _ := pipeline.LoweredModules(l); host != nil {
		t.Error("a translation-unit cache hit lowered the source")
	}
}
