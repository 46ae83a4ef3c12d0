package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dirsim/internal/core"
	"dirsim/internal/dist"
	"dirsim/internal/engine"
	"dirsim/internal/service"
	"dirsim/internal/sim"
	"dirsim/internal/store"
	"dirsim/internal/workload"
)

// Request mix per round: repeats are simulations the set-up put in the
// store, fresh requests use seeds nothing has simulated yet. One third
// repeats keeps p50 and p90 inside the simulated requests' latency mode
// instead of in the gap between disk-served and simulated requests.
const (
	repeatsPerRound = 12
	freshPerRound   = 24
	minRequests     = 100 // per run, so p90 has >= 10 samples beyond it
)

// workerPoll is how long an idle fleet worker waits before asking for
// work again, as dirsimw -poll sets it. A job queued while the workers
// idle waits up to this long, so it is kept short against requests that
// take milliseconds.
const workerPoll = 10 * time.Millisecond

// Headline scheme sets a request sweeps: every pair and every triple of
// Dir1NB, WTI, Dir0B and Dragon.
var (
	pairs   = [][]string{{"Dir1NB", "WTI"}, {"Dir1NB", "Dir0B"}, {"Dir1NB", "Dragon"}, {"WTI", "Dir0B"}, {"WTI", "Dragon"}, {"Dir0B", "Dragon"}}
	triples = [][]string{{"Dir1NB", "WTI", "Dir0B"}, {"Dir1NB", "WTI", "Dragon"}, {"Dir1NB", "Dir0B", "Dragon"}, {"WTI", "Dir0B", "Dragon"}}
)

// requestSpec builds the i-th small sweep of a batch: 2-3 headline
// schemes over one standard workload at the paper's 4 CPUs and 60k-100k
// refs. Schemes, workload and length cycle with i, so every batch asks
// for about the same work whatever the seed; the seed picks the trace.
func requestSpec(i int, seed uint64) service.Spec {
	sc := pairs[(i/2)%len(pairs)]
	if i%2 == 1 {
		sc = triples[(i/2)%len(triples)]
	}
	return service.Spec{
		Schemes: sc,
		Workloads: []service.WorkloadSpec{{
			Name: service.ProfileNames()[i%3],
			CPUs: []int{4},
			Refs: 60_000 + 20_000*((i/2)%3),
			Seed: seed,
		}},
	}
}

// requestPlan is the seeded request stream: the repeat pool shared by
// every round, and round r's fresh requests, shuffled together.
type requestPlan struct {
	seed    uint64
	repeats []service.Spec
}

func newPlan(seed uint64) *requestPlan {
	p := &requestPlan{seed: seed}
	for i := 0; i < repeatsPerRound; i++ {
		p.repeats = append(p.repeats, requestSpec(i, mix(seed, uint64(1000+i))))
	}
	return p
}

// round returns round r's requests and how many references the fresh
// ones ask the service to generate.
func (p *requestPlan) round(r int) (specs []service.Spec, freshRefs int) {
	rng := rand.New(rand.NewSource(int64(mix(p.seed, uint64(0x7000+r)))))
	specs = append(specs, p.repeats...)
	for i := 0; i < freshPerRound; i++ {
		sp := requestSpec(i, mix(p.seed, uint64(1_000_000+r*1000+i)))
		freshRefs += sp.Workloads[0].Refs
		specs = append(specs, sp)
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs, freshRefs
}

// stack is one in-process dirsimd: a service over a store on a loopback
// HTTP server, optionally with a coordinator and a worker fleet.
type stack struct {
	dir    string
	st     *store.Store
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string

	coord   *dist.Coordinator
	timing  []*timingRT
	stopW   context.CancelFunc
	workers sync.WaitGroup
}

// startStack pre-populates a fresh store with the repeat simulations,
// then starts a fresh service instance over it, so repeats are served
// from disk with empty memory caches.
func startStack(dir string, repeats []service.Spec, fleet bool, workers int, traced bool) (*stack, error) {
	st0, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	var specs []engine.SimSpec
	for _, sp := range repeats {
		s, _, err := sp.Expand()
		if err != nil {
			return nil, err
		}
		specs = append(specs, s...)
	}
	pre := engine.New(engine.Options{Workers: workers, Store: st0})
	if _, err := pre.Results(context.Background(), engine.Parallel{Workers: workers}, specs); err != nil {
		return nil, fmt.Errorf("pre-populate store: %w", err)
	}

	s := &stack{dir: dir}
	if s.st, err = store.Open(dir, store.Options{}); err != nil {
		return nil, err
	}
	cfg := service.Config{Store: s.st, Verify: true}
	mux := http.NewServeMux()
	if fleet {
		s.coord = dist.NewCoordinator(dist.Options{})
		cfg.Remote = s.coord
		dist.Register(mux, s.coord)
	}
	if s.svc, err = service.New(cfg); err != nil {
		return nil, err
	}
	s.svc.Start()
	s.svc.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: mux}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()

	if fleet {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopW = cancel
		for i := 0; i < workers; i++ {
			rt := &timingRT{base: &http.Transport{}, traced: traced}
			s.timing = append(s.timing, rt)
			w := &dist.Worker{
				Name:   fmt.Sprintf("w%d", i+1),
				Client: &dist.Client{Base: s.base, HTTP: &http.Client{Transport: rt}},
				Engine: engine.New(engine.Options{}),
				Poll:   workerPoll,
			}
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				w.Run(ctx)
			}()
		}
	}
	return s, nil
}

// stop shuts the stack down and waits for everything it started.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.stopW != nil {
		s.stopW()
		s.workers.Wait()
		for _, rt := range s.timing {
			rt.base.CloseIdleConnections()
		}
	}
	errs := []error{s.svc.Drain(ctx), s.srv.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	if s.coord != nil {
		s.coord.Close()
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// timingRT times each fleet worker's requests to the coordinator.
type timingRT struct {
	base   *http.Transport
	traced bool

	mu        sync.Mutex
	calls     map[string][]float64 // route → round-trip ms
	spans     []span
	nBeats    int64
	leaseDone time.Time // end of the worker's latest lease request
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.traced {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	route := req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
	t.mu.Lock()
	if t.calls == nil {
		t.calls = make(map[string][]float64)
	}
	t.calls[route] = append(t.calls[route], float64(end.Sub(t0))/1e6)
	switch route {
	case "heartbeat":
		t.nBeats++
	case "lease":
		t.leaseDone = end
	case "result":
		// A worker runs one job at a time, so the job it pushes ran
		// from its latest lease to this push.
		t.spans = append(t.spans, span{Name: "worker.job", Layer: "worker", Req: route,
			Start: t.leaseDone, End: t0, Work: true})
	}
	t.spans = append(t.spans, span{Name: "dist." + route, Layer: "dist", Req: route, Start: t0, End: end, Work: true})
	t.mu.Unlock()
	return resp, err
}

// cell identifies one simulation of a request for the correctness check.
type cell struct {
	scheme, workload string
	cpus, refs       int
	seed             uint64
}

// status is the part of the experiment status JSON the client reads.
type status struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Error     string    `json:"error"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Results   []struct {
		Scheme      string `json:"scheme"`
		Workload    string `json:"workload"`
		CPUs        int    `json:"cpus"`
		Refs        int    `json:"refs"`
		Seed        uint64 `json:"seed"`
		Fingerprint string `json:"fingerprint"`
	} `json:"results"`
}

// svcTally accumulates the client's and the SSE stream's observations.
type svcTally struct {
	mu                       sync.Mutex
	admWait, run, httpMS     []float64
	respBytes                float64
	responses                int
	rejected                 int
	loadMS, storeMS          []float64
	repeatHits, simsAsked    float64
	eng                      *engineTally
	failures                 []string
	got                      map[cell][]string // fingerprints the service returned
	storeHits, storeMisses   float64
	storeWrites, storeReject float64
	storeWriteMB             float64
	simsRun                  float64
	remoteDone               float64
	requeued, hedged         float64
	degraded, resRejected    float64
	util                     []float64
	leaseMS, pushMS          []float64
	heartbeats               float64
	freshRefs                float64
}

func newSvcTally() *svcTally {
	return &svcTally{eng: newEngineTally(), got: map[cell][]string{}}
}

func (t *svcTally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// client issues requests in a closed loop: POST the sweep, wait on its
// SSE stream, GET the results.
type client struct {
	http  *http.Client
	base  string
	rec   *recorder
	root  int
	tally *svcTally
	// remote marks a fleet: the service's simulation jobs then wait on
	// workers, whose lease-to-push intervals are the work spans instead.
	remote bool
}

func (c *client) do(n int, spec service.Spec) (latency time.Duration, ok bool) {
	req := fmt.Sprintf("req:%d", n)
	rsp := c.rec.open(c.root, req, "client", req, false)
	defer c.rec.finish(rsp)
	body, _ := json.Marshal(spec)
	t0 := time.Now()

	sp := c.rec.open(rsp, "POST", "http", req, true)
	resp, err := c.http.Post(c.base+"/api/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		c.rec.finish(sp)
		c.tally.fail("%s: POST: %v", req, err)
		return 0, false
	}
	var st status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	c.rec.finish(sp)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		c.tally.mu.Lock()
		c.tally.rejected++
		c.tally.mu.Unlock()
		c.tally.fail("%s: POST refused with %d", req, resp.StatusCode)
		return 0, false
	}
	if err != nil || (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) {
		c.tally.fail("%s: POST status %d: %v", req, resp.StatusCode, err)
		return 0, false
	}

	sp = c.rec.open(rsp, "SSE", "client", req, false)
	err = c.events(st.ID, rsp, req)
	c.rec.finish(sp)
	if err != nil {
		c.tally.fail("%s: events: %v", req, err)
		return 0, false
	}

	sp = c.rec.open(rsp, "GET", "http", req, true)
	resp, err = c.http.Get(c.base + "/api/v1/experiments/" + st.ID)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	c.rec.finish(sp)
	if err != nil {
		c.tally.fail("%s: GET: %v", req, err)
		return 0, false
	}
	latency = time.Since(t0)
	if err := json.Unmarshal(raw, &st); err != nil || st.State != "done" {
		c.tally.fail("%s: state %q error %q decode %v", req, st.State, st.Error, err)
		return latency, false
	}

	t := c.tally
	t.mu.Lock()
	defer t.mu.Unlock()
	t.admWait = append(t.admWait, float64(st.Started.Sub(st.Submitted))/1e6)
	t.run = append(t.run, float64(st.Finished.Sub(st.Started))/1e6)
	t.httpMS = append(t.httpMS, float64(latency-st.Finished.Sub(st.Submitted))/1e6)
	t.respBytes += float64(len(raw))
	t.responses++
	t.simsAsked += float64(len(st.Results))
	for _, r := range st.Results {
		k := cell{r.Scheme, r.Workload, r.CPUs, r.Refs, r.Seed}
		t.got[k] = append(t.got[k], r.Fingerprint)
	}
	return latency, true
}

// events follows the experiment's SSE stream to its end. Traced, every
// event is decoded into layer tallies and spans; untraced, the stream is
// only read to its end marker.
func (c *client) events(id string, parent int, req string) error {
	resp, err := c.http.Get(c.base + "/api/v1/experiments/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	o := newEngineObserver(c.rec, parent, c.tally.eng)
	o.req, o.remote = req, c.remote
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			return nil
		}
		if c.rec == nil || !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Time     time.Time `json:"time"`
			Msg      string    `json:"msg"`
			Job      string    `json:"job"`
			Kind     string    `json:"kind"`
			DurUS    float64   `json:"dur_us"`
			Hit      bool      `json:"hit"`
			CacheHit bool      `json:"cache_hit"`
		}
		if json.Unmarshal([]byte(line[len("data: "):]), &ev) != nil {
			continue
		}
		dur := time.Duration(ev.DurUS * 1e3)
		t := c.tally
		switch ev.Msg {
		case "job.scheduled":
			o.scheduledAt(ev.Job, ev.Time)
		case "job.start":
			o.startedAt(ev.Job, ev.Time)
		case "job.finish":
			o.finishedAt(ev.Job, ev.Kind, ev.Time, dur, ev.CacheHit)
		case "store.load", "store.store":
			c.rec.add(span{Parent: parent, Name: ev.Msg + ":" + ev.Kind, Layer: "store", Req: req,
				Start: ev.Time.Add(-dur), End: ev.Time, Work: true})
			t.mu.Lock()
			if ev.Msg == "store.load" {
				t.loadMS = append(t.loadMS, ev.DurUS/1e3)
				if ev.Hit && ev.Kind == "result" {
					t.repeatHits++
				}
			} else {
				t.storeMS = append(t.storeMS, ev.DurUS/1e3)
			}
			t.mu.Unlock()
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// serviceRound starts a fresh stack (timed as set-up), drives one round's
// requests through nproc closed-loop clients (timed as the round), then
// collects the layers' counters and stops the stack.
func serviceRound(cfg runConfig, plan *requestPlan, r int, fleet bool, p *phase,
	t *svcTally, rec *recorder) error {
	var s *stack
	if err := p.timeSetup(func() error {
		var err error
		s, err = startStack(filepath.Join(cfg.tmp, fmt.Sprintf("round-%d", r)), plan.repeats, fleet, cfg.workers, rec != nil)
		return err
	}); err != nil {
		return err
	}
	bytes0 := s.st.Stats().Bytes
	specs, freshRefs := plan.round(r)
	tr := &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}
	root := rec.open(0, fmt.Sprintf("round:%d", r), "bench", "", false)
	var next atomic.Int64
	var lat []float64
	var latMu sync.Mutex
	refs := 0.0
	for _, sp := range specs {
		refs += float64(sp.Workloads[0].Refs * len(sp.Schemes))
	}
	p.round(func() error {
		var wg sync.WaitGroup
		for i := 0; i < cfg.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &client{http: &http.Client{Transport: tr}, base: s.base, rec: rec, root: root, tally: t, remote: fleet}
				for {
					n := int(next.Add(1)) - 1
					if n >= len(specs) {
						return
					}
					if d, ok := c.do(r*1000+n, specs[n]); ok {
						latMu.Lock()
						lat = append(lat, float64(d)/1e6)
						latMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		return nil
	})
	rec.finish(root)
	tr.CloseIdleConnections()
	p.latencyMS = append(p.latencyMS, lat...)
	p.refs = append(p.refs, refs)
	p.sweeps += float64(len(lat))

	ss := s.st.Stats()
	es := s.svc.Engine().Stats()
	t.mu.Lock()
	t.freshRefs += float64(freshRefs)
	t.storeHits += float64(ss.Hits)
	t.storeMisses += float64(ss.Misses)
	t.storeWrites += float64(ss.Writes)
	t.storeReject += float64(ss.Rejected)
	t.storeWriteMB += float64(ss.Bytes-bytes0) / 1e6
	t.eng.add(es)
	t.simsRun += float64(es.SimsRun)
	if s.coord != nil {
		cs := s.coord.Stats()
		t.remoteDone += float64(cs.JobsCompleted)
		t.requeued += float64(cs.JobsRequeued)
		t.hedged += float64(cs.JobsHedged)
		t.degraded += float64(cs.JobsDegraded)
		t.resRejected += float64(cs.ResultsRejected)
		for _, w := range cs.Workers {
			t.util = append(t.util, w.UtilizationPct/100)
		}
	}
	t.mu.Unlock()
	err := s.stop()
	for _, rt := range s.timing {
		t.leaseMS = append(t.leaseMS, rt.calls["lease"]...)
		t.pushMS = append(t.pushMS, rt.calls["result"]...)
		t.heartbeats += float64(rt.nBeats)
		for _, sp := range rt.spans {
			sp.Parent = root
			rec.add(sp)
		}
	}
	return err
}

// serviceWorkload measures an in-process dirsimd serving nproc
// closed-loop HTTP clients; with fleet, cache-missing simulations go to
// nproc in-process dist workers over loopback.
func serviceWorkload(cfg runConfig, fleet bool) (*outcome, error) {
	out := newOutcome()
	plan := newPlan(cfg.seed)
	var ph phase
	t := newSvcTally()
	minRounds := (minRequests + repeatsPerRound + freshPerRound - 1) / (repeatsPerRound + freshPerRound)
	if cfg.trace {
		minRounds = 2
	}
	budget := cfg.budget()
	start := time.Now()
	r := 0
	for ; keepRunning(start, budget, r, minRounds); r++ {
		if err := serviceRound(cfg, plan, r, fleet, &ph, t, nil); err != nil {
			return nil, err
		}
	}
	out.e2e = ph.endToEnd()
	out.note("untraced %s", ph.describe())
	out.samples = len(ph.latencyMS)

	var traced phase
	rec := &recorder{}
	tt := newSvcTally()
	if cfg.trace {
		start = time.Now()
		for n := 0; keepRunning(start, budget, n, 2); n, r = n+1, r+1 {
			if err := serviceRound(cfg, plan, r, fleet, &traced, tt, rec); err != nil {
				return nil, err
			}
		}
	}

	// Correctness: every returned result must equal a sequential
	// simulation of the same input, computed after the timed rounds.
	ref, err := newReference(cfg.workers, t, tt)
	if err != nil {
		return nil, err
	}
	for _, tl := range []*svcTally{t, tt} {
		for _, f := range tl.failures {
			out.attempted++
			out.failed++
			out.note("FAILED %s", f)
		}
		for k, fps := range tl.got {
			for _, fp := range fps {
				out.attempted++
				if want := ref.fps[k]; fp != want {
					out.failed++
					out.note("MISMATCH %+v fingerprint %s, sequential %s", k, fp, want)
				}
			}
		}
	}
	if !cfg.trace {
		return out, nil
	}

	rounds := float64(len(traced.wall))
	L := out.layers
	L.set("workload.refs", tt.freshRefs/rounds, "count")
	// The service generates fresh traces inside unkeyed stream jobs its
	// event stream does not carry, so generation is timed on the same
	// traces during the reference pass.
	L.set("workload.gen_s", ref.genPerTrace.Seconds()*freshPerRound, "s")
	tt.eng.report(L, rounds, cfg.workers, sum(traced.wall))
	L.set("store.hits", tt.storeHits/rounds, "count")
	L.set("store.misses", tt.storeMisses/rounds, "count")
	L.set("store.hit_ratio", ratio(tt.storeHits, tt.storeHits+tt.storeMisses), "ratio")
	L.set("store.writes", tt.storeWrites/rounds, "count")
	L.set("store.rejected", tt.storeReject/rounds, "count")
	L.set("store.write_mb", tt.storeWriteMB/rounds, "MB")
	L.set("store.load_ms", mean(tt.loadMS), "ms")
	L.set("store.store_ms", mean(tt.storeMS), "ms")
	L.set("service.repeat_share", ratio(tt.repeatHits, tt.simsAsked), "ratio")
	L.set("service.admission_wait_ms", median(tt.admWait), "ms")
	L.set("service.run_ms", median(tt.run), "ms")
	L.set("service.http_ms", median(tt.httpMS), "ms")
	L.set("service.response_kb", ratio(tt.respBytes, float64(tt.responses))/1024, "KB")
	L.set("service.rejected", float64(t.rejected+tt.rejected), "count")
	if fleet {
		L.set("dist.lease_ms", mean(tt.leaseMS), "ms")
		L.set("dist.push_ms", mean(tt.pushMS), "ms")
		L.set("dist.heartbeats", tt.heartbeats/rounds, "count")
		L.set("dist.requeued", tt.requeued/rounds, "count")
		L.set("dist.hedged", tt.hedged/rounds, "count")
		L.set("dist.degraded", tt.degraded/rounds, "count")
		L.set("dist.rejected", tt.resRejected/rounds, "count")
		L.set("dist.remote_share", ratio(tt.remoteDone, tt.simsRun), "ratio")
		L.set("dist.worker_utilization", mean(tt.util), "ratio")
	}
	out.finishTrace(rec, ph, traced, cfg)
	return out, nil
}

// reference holds the sequential fingerprint of every cell the clients
// got, and the mean time generating one request trace took.
type reference struct {
	fps         map[cell]string
	genPerTrace time.Duration
}

// newReference simulates every cell in the tallies sequentially with
// sim.Simulate over a freshly generated trace, generating each trace
// once; the traces are spread over workers goroutines.
func newReference(workers int, tallies ...*svcTally) (*reference, error) {
	byTrace := map[cell][]cell{} // trace (scheme "") → its cells
	for _, t := range tallies {
		for k := range t.got {
			tk := k
			tk.scheme = ""
			if !containsCell(byTrace[tk], k) {
				byTrace[tk] = append(byTrace[tk], k)
			}
		}
	}
	todo := make(chan cell, len(byTrace))
	for tk := range byTrace {
		todo <- tk
	}
	close(todo)
	ref := &reference{fps: map[cell]string{}}
	var mu sync.Mutex
	var gen time.Duration
	var errs []error
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range todo {
				fps, d, err := referenceCells(tk, byTrace[tk])
				mu.Lock()
				gen += d
				errs = append(errs, err)
				for k, fp := range fps {
					ref.fps[k] = fp
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(byTrace) > 0 {
		ref.genPerTrace = gen / time.Duration(len(byTrace))
	}
	return ref, errors.Join(errs...)
}

func containsCell(cs []cell, c cell) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// referenceCells generates one request trace and simulates each of its
// cells sequentially, returning the fingerprints and the generation time.
func referenceCells(tk cell, cells []cell) (map[cell]string, time.Duration, error) {
	mk := map[string]func(int, int) workload.Config{
		"pops": workload.POPSConfig, "thor": workload.THORConfig, "pero": workload.PEROConfig,
	}[tk.workload]
	if mk == nil {
		return nil, 0, fmt.Errorf("reference: unknown workload %q", tk.workload)
	}
	wc := mk(tk.cpus, tk.refs)
	wc.Seed = tk.seed
	t0 := time.Now()
	tr, err := workload.Generate(wc)
	gen := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	fps := make(map[cell]string, len(cells))
	for _, k := range cells {
		p, err := core.NewByName(k.scheme, k.cpus)
		if err != nil {
			return nil, 0, err
		}
		r, err := sim.Simulate(p, tr.Iterator(), sim.Options{})
		if err != nil {
			return nil, 0, err
		}
		r.Trace = tr.Name
		fps[k] = fmt.Sprintf("%016x", r.Fingerprint())
	}
	return fps, gen, nil
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
