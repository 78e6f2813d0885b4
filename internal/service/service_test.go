package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/service"
	"github.com/oraql/go-oraql/internal/service/client"
)

// progSum is a tiny deterministic program with array traffic.
const progSum = `int main() {
	double a[8];
	for (int z = 0; z < 8; z++) { a[z] = (double)z; }
	double s = 0.0;
	for (int z = 0; z < 8; z++) { s = s + a[z]; }
	print(s, "\n");
	return 0;
}
`

// progPtr carries a may-alias pointer pair so probing has queries to
// bisect over.
const progPtr = `int main() {
	double a[8];
	for (int z = 0; z < 8; z++) { a[z] = (double)z; }
	int m[4];
	for (int z = 0; z < 4; z++) { m[z] = z; }
	double* p = a + m[2];
	a[2] = 1.0;
	p[0] = 3.0;
	print("v ", a[2], "\n");
	return 0;
}
`

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client, func()) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc)
	cl := client.New(ts.URL)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}
	return svc, cl, stop
}

func compileReq(source string, opts service.CompileOptions) *service.CompileRequest {
	return &service.CompileRequest{
		Program: service.ProgramSpec{Source: source, SourceFile: "test.mc"},
		Options: opts,
	}
}

// metricValue extracts one plain counter/gauge sample from the
// Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parse %s sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

func exeHash(t *testing.T, resp *service.CompileResponse) string {
	t.Helper()
	var cj report.CompileJSON
	if err := json.Unmarshal(resp.Result, &cj); err != nil {
		t.Fatalf("decode compile result: %v", err)
	}
	if cj.ExeHash == "" {
		t.Fatal("compile result has no exe hash")
	}
	return cj.ExeHash
}

// TestCompileCacheHit pins the cross-request cache: an identical
// resubmission is served from cache (Cached=true, identical payload)
// and the hit is observable as a /metrics counter delta.
func TestCompileCacheHit(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()

	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits0 := metricValue(t, before, "oraql_result_cache_hits_total")

	req := compileReq(progSum, service.CompileOptions{})
	first, err := cl.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first compilation must not be a cache hit")
	}

	second, err := cl.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical resubmission must be served from cache")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result payload differs from the original")
	}
	if first.ModuleHash != second.ModuleHash || first.ConfigHash != second.ConfigHash {
		t.Fatalf("cache key changed: %s:%s vs %s:%s",
			first.ModuleHash, first.ConfigHash, second.ModuleHash, second.ConfigHash)
	}

	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits1 := metricValue(t, after, "oraql_result_cache_hits_total")
	if hits1 < hits0+1 {
		t.Fatalf("cache hit counter did not advance: %v -> %v", hits0, hits1)
	}
	if compiles := metricValue(t, after, "oraql_compiles_total"); compiles < 1 {
		t.Fatalf("compiles_total = %v, want >= 1", compiles)
	}

	// Different options miss the cache: the key covers the config hash.
	third, err := cl.Compile(ctx, compileReq(progSum, service.CompileOptions{OptLevel: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different options must not hit the cache")
	}
	if third.ConfigHash == first.ConfigHash {
		t.Fatal("config hash must depend on the options")
	}
}

// TestConcurrentStress drives >=32 mixed requests (compiles, cache
// hits, probe campaigns, cancellations) concurrently, asserts every
// request observed a deterministic result, and that the service drains
// cleanly afterwards. Run under -race this is the data-race oracle for
// the shared caches, metrics, and the job store.
func TestConcurrentStress(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{QueueSize: 128})
	defer stop()
	ctx := context.Background()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		hashes   = map[string]map[string]bool{} // program -> set of exe hashes
		seqs     = map[string]bool{}            // probe final_seq values
		canceled int
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}

	programs := map[string]string{"sum": progSum, "ptr": progPtr}

	// 16 compile clients over two programs: 8 first-compiles + repeats
	// that should largely be cache hits; all must agree on the exe hash.
	for i := 0; i < 16; i++ {
		name := "sum"
		if i%2 == 1 {
			name = "ptr"
		}
		src := programs[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.Compile(ctx, compileReq(src, service.CompileOptions{}))
			if err != nil {
				fail("compile %s: %v", name, err)
				return
			}
			h := exeHashQuiet(resp)
			mu.Lock()
			if hashes[name] == nil {
				hashes[name] = map[string]bool{}
			}
			hashes[name][h] = true
			mu.Unlock()
		}()
	}

	// 8 probe clients on the pointer program: every campaign must reach
	// the same locally-maximal sequence.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := cl.Probe(ctx, &service.ProbeRequest{
				Program: service.ProgramSpec{Source: progPtr, SourceFile: "ptr.mc"},
			})
			if err != nil {
				fail("probe submit: %v", err)
				return
			}
			info, err = cl.Wait(ctx, info.ID, 10*time.Millisecond)
			if err != nil {
				fail("probe wait: %v", err)
				return
			}
			if info.State != service.JobDone {
				fail("probe job %s: state %s (%s)", info.ID, info.State, info.Error)
				return
			}
			var p report.ProbeJSON
			if err := json.Unmarshal(info.Result, &p); err != nil {
				fail("probe result decode: %v", err)
				return
			}
			mu.Lock()
			seqs[p.FinalSeq] = true
			mu.Unlock()
		}()
	}

	// 8 cancel clients: submit a long fuzz campaign and cancel it
	// immediately; the job must reach a terminal state either way.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := cl.Fuzz(ctx, &service.FuzzRequest{N: 500, Workers: 1})
			if err != nil {
				fail("fuzz submit: %v", err)
				return
			}
			if _, err := cl.Cancel(ctx, info.ID); err != nil {
				fail("fuzz cancel: %v", err)
				return
			}
			info, err = cl.Wait(ctx, info.ID, 10*time.Millisecond)
			if err != nil {
				fail("fuzz wait: %v", err)
				return
			}
			if !info.Terminal() {
				fail("fuzz job %s not terminal after cancel: %s", info.ID, info.State)
				return
			}
			if info.State == service.JobFailed {
				fail("fuzz job %s failed rather than canceled: %s", info.ID, info.Error)
				return
			}
			if info.State == service.JobCanceled {
				mu.Lock()
				canceled++
				mu.Unlock()
			}
		}()
	}

	wg.Wait()

	for name, set := range hashes {
		if len(set) != 1 {
			t.Errorf("program %s produced %d distinct exe hashes: %v", name, len(set), set)
		}
	}
	if len(seqs) != 1 {
		t.Errorf("probing was nondeterministic: %d distinct final sequences: %v", len(seqs), seqs)
	}
	if canceled == 0 {
		t.Log("note: every cancel raced a completed campaign (unlikely but legal)")
	}

	// Clean drain with nothing left in flight happens in stop(); health
	// must still be OK here.
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining {
		t.Fatalf("health after stress: %+v", h)
	}
}

func exeHashQuiet(resp *service.CompileResponse) string {
	var cj report.CompileJSON
	if json.Unmarshal(resp.Result, &cj) != nil {
		return "undecodable"
	}
	return cj.ExeHash
}

// TestShutdownCancelsInflight submits a long-running campaign, waits
// until it is running, and verifies that Shutdown both returns before
// the campaign could finish on its own and leaves the job canceled —
// i.e. the context reached the workers mid-pipeline.
func TestShutdownCancelsInflight(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueSize: 4})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	// A 5000-program campaign takes far longer than this whole test.
	info, err := cl.Fuzz(ctx, &service.FuzzRequest{N: 5000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := cl.Job(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == service.JobRunning {
			break
		}
		if cur.Terminal() {
			t.Fatalf("job finished before shutdown could interrupt it: %s", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("shutdown took %v; cancellation did not reach the campaign", elapsed)
	}

	cur, err := cl.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.State != service.JobCanceled {
		t.Fatalf("in-flight job state after shutdown = %s (%s), want canceled", cur.State, cur.Error)
	}
	if !svc.Draining() {
		t.Fatal("Draining() must report true after Shutdown")
	}

	// Draining service refuses new work.
	if _, err := cl.Compile(ctx, compileReq(progSum, service.CompileOptions{})); err == nil {
		t.Fatal("compile on a draining service must fail")
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.OK || !h.Draining {
		t.Fatalf("health while draining: %+v", h)
	}
}

// TestShutdownCancelsQueued verifies queued-but-never-started jobs are
// drained to canceled.
func TestShutdownCancelsQueued(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueSize: 8})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	// Occupy the single worker, then queue behind it.
	blocker, err := cl.Fuzz(ctx, &service.FuzzRequest{N: 5000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Fuzz(ctx, &service.FuzzRequest{N: 5000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range []string{blocker.ID, queued.ID} {
		cur, err := cl.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State != service.JobCanceled {
			t.Errorf("job %s state = %s, want canceled", id, cur.State)
		}
	}
}

// TestJobEvents streams a probe job's progress lines.
func TestJobEvents(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()

	info, err := cl.Probe(ctx, &service.ProbeRequest{
		Program: service.ProgramSpec{Source: progPtr, SourceFile: "ptr.mc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := cl.Events(ctx, info.ID, &buf); err != nil {
		t.Fatalf("events: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, info.ID+": started") {
		t.Fatalf("event stream missing start line:\n%s", out)
	}
	if !strings.Contains(out, info.ID+": done") {
		t.Fatalf("event stream missing terminal line:\n%s", out)
	}
}

// TestRequestErrors pins the HTTP error contract.
func TestRequestErrors(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()
	base := cl.Base

	post := func(path, body string) (int, string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", "/v1/compile", "{", http.StatusBadRequest},
		{"unknown field", "/v1/compile", `{"nope": 1}`, http.StatusBadRequest},
		{"removed AA query cache knob", "/v1/compile", `{"program":{"config_id":"lulesh-seq"},"options":{"disable_aa_query_cache":true}}`, http.StatusBadRequest},
		{"empty program", "/v1/compile", `{}`, http.StatusBadRequest},
		{"unknown config", "/v1/compile", `{"program":{"config_id":"no-such"}}`, http.StatusBadRequest},
		{"unknown model", "/v1/compile", `{"program":{"source":"int main() { return 0; }","model":"warp"}}`, http.StatusBadRequest},
		{"syntax error", "/v1/compile", `{"program":{"source":"int main( {"}}`, http.StatusUnprocessableEntity},
		{"probe unknown strategy", "/v1/probe", fmt.Sprintf(`{"program":{"source":%q},"strategy":"dowsing"}`, progSum), http.StatusBadRequest},
		{"fuzz malformed", "/v1/fuzz", "[", http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := post(tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, code, tc.want, body)
			continue
		}
		var env service.ErrorResponse
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == "" || env.Code != tc.want {
			t.Errorf("%s: not the uniform error envelope: %s", tc.name, body)
		}
	}

	if _, err := cl.Job(ctx, "probe-999999"); err == nil {
		t.Error("polling an unknown job must fail")
	}
	if _, err := cl.Cancel(ctx, "fuzz-999999"); err == nil {
		t.Error("cancelling an unknown job must fail")
	}
}

// TestRequestTimeout pins the 504 mapping for compilations that exceed
// the per-request deadline.
func TestRequestTimeout(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{RequestTimeout: time.Nanosecond})
	defer stop()
	_, err := cl.Compile(context.Background(), compileReq(progSum, service.CompileOptions{}))
	if err == nil {
		t.Fatal("expected a timeout failure")
	}
	if !strings.Contains(err.Error(), "504") {
		t.Fatalf("error should carry HTTP 504: %v", err)
	}
}

// TestQueueFull pins the 503 on a saturated bounded queue.
func TestQueueFull(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueSize: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	// Occupy the worker...
	running, err := cl.Fuzz(ctx, &service.FuzzRequest{N: 5000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := cl.Job(ctx, running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == service.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...fill the queue...
	if _, err := cl.Fuzz(ctx, &service.FuzzRequest{N: 5000, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// ...and the next submission must bounce with 503.
	_, err = cl.Fuzz(ctx, &service.FuzzRequest{N: 1})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("saturated queue should reject with 503, got %v", err)
	}

	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
