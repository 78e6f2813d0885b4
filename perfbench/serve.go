package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
	"github.com/oraql/go-oraql/internal/service"
)

// serve-compile sizing. The offered rate is fixed at about an eighth of
// the closed-loop capacity (two connections, about 425 requests/s on
// this mix) measured on a 2-core host whose speed for the same work
// drifts by up to 2x over minutes. At half capacity a slow spell left
// runs with a backlog that dominated every latency; up to a fifth, the
// median request queued behind compiles often enough to move the median
// by 3x. The request count scales with -seconds but is fixed for given
// -seconds, and the key pool scales with it (one key per servePoolShare
// requests, never fewer than serveMinPool), so the mix of memory hits,
// disk hits and compiles is the same for every length.
const (
	serveRate      = 50.0 // requests per second, Poisson arrivals
	servePoolShare = 4    // requests per pool key
	serveMinPool   = 384  // three times the service's 128-entry LRU
	serveZipfS     = 1.5  // Zipf exponent of key popularity ...
	serveZipfV     = 8.0  // ... and its offset: P(rank k) ∝ (v+k)^-s
	serveSample    = 32   // keys recompiled in-process for the check
)

// serveKey is one distinct compile request of the key pool.
type serveKey struct {
	req   service.CompileRequest
	body  []byte
	oraql bool
}

// keyPool is the seeded pool of size keys: every configuration at -O3,
// at -O1, with the full AA chain and with ORAQL on a seeded response
// sequence, then generated programs at -O3.
func keyPool(seed int64, size int) []*serveKey {
	r := rand.New(rand.NewSource(seed))
	var pool []*serveKey
	add := func(p service.ProgramSpec, o service.CompileOptions) {
		k := &serveKey{req: service.CompileRequest{Program: p, Options: o}, oraql: o.ORAQL}
		k.body, _ = json.Marshal(&k.req) // wire types marshal by construction
		pool = append(pool, k)
	}
	for _, c := range apps.All() {
		p := service.ProgramSpec{ConfigID: c.ID}
		add(p, service.CompileOptions{})
		add(p, service.CompileOptions{OptLevel: 1})
		add(p, service.CompileOptions{AAChain: "full"})
		seq := make(oraql.Seq, 16+r.Intn(49))
		for i := range seq {
			seq[i] = r.Float64() < 0.8
		}
		add(p, service.CompileOptions{ORAQL: true, Seq: seq.String(), Target: c.ORAQLTarget})
	}
	for len(pool) < size {
		prog := progen.Generate(r.Int63(), progen.Options{})
		add(service.ProgramSpec{Source: prog.Source, SourceFile: prog.FileName, Model: "openmp"},
			service.CompileOptions{})
	}
	return pool
}

// pipelineConfig rebuilds, from outside the service, the compilation a
// key asks for, for the in-process exe-hash check.
func (k *serveKey) pipelineConfig() (pipeline.Config, error) {
	var cfg pipeline.Config
	p, o := k.req.Program, k.req.Options
	if p.ConfigID != "" {
		c := apps.ByID(p.ConfigID)
		cfg = pipeline.Config{Name: c.ID, Source: c.Source, SourceFile: c.SourceName, Frontend: c.Frontend}
	} else {
		cfg = pipeline.Config{Name: p.SourceFile, Source: p.Source, SourceFile: p.SourceFile,
			Frontend: minic.Options{Model: minic.ModelOpenMP}}
	}
	cfg.OptLevel = o.OptLevel
	cfg.AAChain = o.AAChain
	if o.ORAQL {
		seq, err := oraql.ParseSeq(o.Seq)
		if err != nil {
			return cfg, err
		}
		cfg.ORAQL = &oraql.Options{Seq: seq, Target: o.Target}
	}
	return cfg, nil
}

// serveRequest is one request of the stream.
type serveRequest struct {
	key int
	due time.Duration // since the start of the timed phase
}

// stream draws the warm-up prefix and the timed requests. The prefix
// asks for every configuration key once, in a seeded order, so set-up
// does the same work on every seed. For the timed requests, key
// popularity is Zipf-skewed over a seeded order of the pool; each
// rank's share of the requests is fixed (largest-remainder rounding of
// its Zipf probability) and the seed shuffles the order, so every seed
// sends the same number of repeats. Arrivals are Poisson, with the
// gaps scaled so that the timed requests span exactly n/serveRate
// seconds.
func stream(seed int64, pool []*serveKey, n int) (warm, timed []serveRequest) {
	r := rand.New(rand.NewSource(seed ^ 0x5e7e))
	for k, key := range pool {
		if key.req.Program.ConfigID != "" {
			warm = append(warm, serveRequest{key: k})
		}
	}
	r.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })

	rank := r.Perm(len(pool))
	p := make([]float64, len(pool))
	var sum float64
	for k := range p {
		p[k] = math.Pow(serveZipfV+float64(k), -serveZipfS)
		sum += p[k]
	}
	type rem struct {
		k int
		f float64
	}
	var keys []int
	var rems []rem
	for k := range p {
		x := p[k] / sum * float64(n)
		c := int(x)
		for i := 0; i < c; i++ {
			keys = append(keys, rank[k])
		}
		rems = append(rems, rem{k, x - float64(c)})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].f > rems[j].f })
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, rank[rems[i].k])
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	gaps := make([]float64, n)
	var span float64
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		span += gaps[i]
	}
	scale := float64(n) / serveRate / span
	var at float64
	for i, k := range keys {
		at += gaps[i] * scale
		timed = append(timed, serveRequest{key: k, due: time.Duration(at * float64(time.Second))})
	}
	return warm, timed
}

// sample is one completed request.
type sample struct {
	latMS, lateMS, compileMS float64
	cached, ok               bool
	exeHash                  string
	err                      error
}

// server is one in-process oraql-serve behind a loopback listener.
type server struct {
	svc   *service.Server
	http  *http.Server
	url   string
	store *diskcache.Store
	done  chan error
}

func startServer(dir string) (*server, error) {
	store, err := diskcache.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: service.New(service.Config{Cache: store}), store: store,
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.http = &http.Server{Handler: s.svc}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, drains the service and
// waits for the serving goroutine.
func (s *server) stop() error {
	err := s.http.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := s.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// client sends compile requests over at most conns connections.
type client struct {
	hc    *http.Client
	url   string
	conns int
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, url: url, conns: conns}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) compile(k *serveKey) sample {
	resp, err := c.hc.Post(c.url+"/v1/compile", "application/json", bytes.NewReader(k.body))
	if err != nil {
		return sample{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return sample{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return sample{err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
	var cr service.CompileResponse
	var res struct {
		ExeHash string `json:"exe_hash"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		return sample{err: err}
	}
	if err := json.Unmarshal(cr.Result, &res); err != nil || res.ExeHash == "" {
		return sample{err: fmt.Errorf("response without exe_hash: %v", err)}
	}
	return sample{ok: true, cached: cr.Cached, compileMS: cr.CompileMS, exeHash: res.ExeHash}
}

// send runs the requests on c.conns workers. With open set, each
// request waits for its due time after t0 and its latency counts from
// then; otherwise requests go back to back (the warm-up prefix).
func (c *client) send(pool []*serveKey, reqs []serveRequest, open bool, t0 time.Time,
	tr *tracer) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := time.Now()
				if open {
					due = t0.Add(reqs[i].due)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				sent := time.Now()
				s := c.compile(pool[reqs[i].key])
				done := time.Now()
				s.latMS, s.lateMS = ms(done.Sub(due)), ms(sent.Sub(due))
				out[i] = s
				if tr != nil {
					id := tr.add("loadgen.request", 0, i, lane, due, done)
					rt := tr.add("http.roundtrip", id, i, lane, sent, done)
					if s.ok && !s.cached {
						// The server reports its compile time; it ends
						// just before the response is written.
						d := time.Duration(s.compileMS * float64(time.Millisecond))
						tr.add("service.compile", rt, i, lane, done.Add(-d), done)
					}
				}
			}
		}(laneLoadgen + w)
	}
	wg.Wait()
	return out
}

// scrape reads one counter from the server's /metrics.
func (c *client) scrape(name string) (float64, error) {
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metric %s not found", name)
}

// serveCompile: an open-loop compile stream against an in-process
// oraql-serve with a fresh -cache-dir.
func serveCompile(e *env) (*result, error) {
	res := newResult()
	n := int(serveRate * float64(e.opts.seconds))
	if e.opts.ops > 0 {
		n = e.opts.ops
	}
	pool := keyPool(e.opts.seed, max(serveMinPool, n/servePoolShare))
	warm, timed := stream(e.opts.seed, pool, n)
	conns := runtime.NumCPU()

	// Set-up: server start plus the warm-up prefix, repeated on fresh
	// directories; the last server stays up for the timed phase.
	var (
		setup []float64
		srv   *server
		cl    *client
		dir   string
	)
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			cl.close()
			if err := srv.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(e.work, fmt.Sprintf("serve-%d", i))
		t := time.Now()
		var err error
		if srv, err = startServer(dir); err != nil {
			return nil, err
		}
		cl = newClient(srv.url, conns)
		for _, s := range cl.send(pool, warm, false, t, nil) {
			if !s.ok {
				cl.close()
				srv.stop()
				return nil, fmt.Errorf("warm-up request: %v", s.err)
			}
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer func() {
		cl.close()
		srv.stop()
	}()

	memHits0, err := cl.scrape("oraql_result_cache_hits_total")
	if err != nil {
		return nil, err
	}
	dc0 := srv.store.Counters()
	ph := beginPhase()
	t0 := time.Now()
	samples := cl.send(pool, timed, true, t0, e.tr)
	wall := time.Since(t0)
	var lat, late []float64
	good := 0
	for _, s := range samples {
		lat = append(lat, s.latMS)
		late = append(late, s.lateMS)
		if s.ok {
			good++
		}
	}
	if e.tr == nil {
		ph.finish(res, len(timed), lat, setup)
		res.e2e["ops_per_s"] = float64(good) / wall.Seconds() // goodput
		if v, ok := tailQuantile(lat, 0.99); ok {
			res.notes["op_ms_p99"] = v
		}
	}
	memHits1, err := cl.scrape("oraql_result_cache_hits_total")
	if err != nil {
		return nil, err
	}
	dc := srv.store.Counters()

	// Checks: a request must succeed, and every key must map to one
	// exe hash on hits and misses alike.
	hashOf := map[int]string{}
	var cached, misses, oraqlReqs int
	var compileMS, overheadMS []float64
	for i, s := range samples {
		res.attempted++
		k := timed[i].key
		if pool[k].oraql {
			oraqlReqs++
		}
		if !s.ok {
			res.fail("request %d: %v", i, s.err)
			continue
		}
		if h, ok := hashOf[k]; ok && h != s.exeHash {
			res.fail("request %d: key %d served exe hash %s, earlier %s", i, k, s.exeHash, h)
		}
		hashOf[k] = s.exeHash
		if s.cached {
			cached++
		} else {
			misses++
			compileMS = append(compileMS, s.compileMS)
			overheadMS = append(overheadMS, s.latMS-s.compileMS)
		}
	}
	if err := sampleCheck(e, res, pool, hashOf); err != nil {
		return nil, err
	}

	total := float64(len(samples))
	memHits := memHits1 - memHits0
	res.props["input.mem_hit_share"] = memHits / total
	res.props["input.disk_hit_share"] = (float64(cached) - memHits) / total
	res.props["input.compile_share"] = float64(misses) / total
	res.props["input.oraql_share"] = float64(oraqlReqs) / total
	if e.tr == nil {
		return res, nil
	}
	res.layer["service.hit_share"] = float64(cached) / total
	res.layer["service.compile_ms_p50"] = quantile(compileMS, 0.5)
	res.layer["service.overhead_ms_p50"] = quantile(overheadMS, 0.5)
	if v, ok := tailQuantile(late, 0.99); ok {
		res.layer["loadgen.late_ms_p99"] = v
	}
	res.layer["diskcache.hits_per_op"] = float64(dc.Hits-dc0.Hits) / total
	res.layer["diskcache.misses_per_op"] = float64(dc.Misses-dc0.Misses) / total
	res.layer["diskcache.puts_per_op"] = float64(dc.Puts-dc0.Puts) / total
	res.layer["diskcache.hit_ratio"] = ratio(float64(dc.Hits-dc0.Hits), float64(dc.Hits-dc0.Hits+dc.Misses-dc0.Misses))
	_, bytes := srv.store.Usage()
	res.layer["diskcache.mb"] = float64(bytes) / mb
	res.zeroLayers()
	return res, nil
}

// sampleCheck recompiles a seeded sample of the keys served in-process
// and compares exe hashes with what the server returned. In a traced
// run the compilations are spanned and give the compile-layer metrics.
func sampleCheck(e *env, res *result, pool []*serveKey, hashOf map[int]string) error {
	keys := make([]int, 0, len(hashOf))
	for k := range pool {
		if _, ok := hashOf[k]; ok {
			keys = append(keys, k)
		}
	}
	r := rand.New(rand.NewSource(e.opts.seed ^ 0xc4ec))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > serveSample {
		keys = keys[:serveSample]
	}
	var cs compileStats
	for i, k := range keys {
		cfg, err := pool[k].pipelineConfig()
		if err != nil {
			return err
		}
		root := e.tr.begin("check.compile", 0, i, laneReplay)
		cr, err := tracedCompile(e.tr, &cs, root, i, laneReplay, cfg)
		e.tr.end(root)
		want := hashOf[k]
		if e.opts.corruptRef {
			want += "-corrupted"
		}
		switch {
		case err != nil:
			res.fail("in-process compile of key %d: %v", k, err)
		case cr.ExeHash() != want:
			res.fail("key %d: server exe hash %s, in-process %s", k, want, cr.ExeHash())
		}
		res.attempted++
	}
	if e.tr != nil {
		cs.report(res)
	}
	return nil
}
