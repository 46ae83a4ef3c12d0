package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/report"
)

// sweepGolden holds the SHA-256 of the rendered paper report at the
// paper's 4 CPUs and default trace length. Simulated statistics are
// deterministic, so any change to it is a correctness failure.
const sweepGolden = "perfbench/sweep.golden"

// warmRefs is the trace length of the reduced sweep each set-up runs.
const warmRefs = 10_000

// sweepOut is one sweep's rendered report and per-experiment timings.
type sweepOut struct {
	report string
	errs   []string
	durs   []time.Duration // per experiment, in paper order
	ctx    *report.Context
}

// runSweep runs every experiment concurrently on a fresh parallel engine,
// as `experiments -run all -parallel 0` does, and renders the report in
// paper order.
func runSweep(refs, workers int, observer engine.Observer, rec *recorder, root int) *sweepOut {
	exec := engine.Parallel{Workers: workers}
	eng := engine.New(engine.Options{Workers: workers, Observer: observer})
	ctx := report.NewContextWith(refs, 4, eng, exec)
	exps := report.Experiments()
	outs := make([]string, len(exps))
	errs := make([]error, len(exps))
	durs := make([]time.Duration, len(exps))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range exps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := rec.open(root, "experiment:"+exps[i].ID, "report", exps[i].ID, false)
			outs[i], errs[i] = ctx.RunExperiment(exps[i])
			rec.finish(sp)
			durs[i] = time.Since(start)
		}()
	}
	wg.Wait()
	var b strings.Builder
	res := &sweepOut{durs: durs, ctx: ctx}
	for i, e := range exps {
		if errs[i] != nil {
			res.errs = append(res.errs, fmt.Sprintf("%s: %v", e.ID, errs[i]))
			continue
		}
		b.WriteString(outs[i])
		b.WriteByte('\n')
	}
	res.report = b.String()
	return res
}

// engineTally sums the engine layer over traced rounds: the jobs that ran
// (cache hits excluded) with their wall time and queue wait per kind, and
// the engine's own counters.
type engineTally struct {
	mu                            sync.Mutex
	jobs, busy                    map[string]float64
	queueWait                     float64
	hits, misses, stalls, retries float64
}

func newEngineTally() *engineTally {
	return &engineTally{jobs: map[string]float64{}, busy: map[string]float64{}}
}

// ran records one job that ran.
func (e *engineTally) ran(kind string, d, wait time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobs[kind]++
	e.busy[kind] += d.Seconds()
	e.queueWait += wait.Seconds()
}

// add adds one round's engine counters.
func (e *engineTally) add(st engine.Stats) {
	e.hits += float64(st.CacheHits)
	e.misses += float64(st.CacheMisses)
	e.stalls += float64(st.StreamStalls)
	e.retries += float64(st.JobRetries)
}

// report sets the engine metrics as means per round over rounds traced
// rounds that took wall seconds in all on workers workers.
func (e *engineTally) report(L metrics, rounds float64, workers int, wall float64) {
	allBusy := 0.0
	for _, k := range []string{"trace", "stream", "sim", "merge"} {
		L.set("engine.jobs."+k, e.jobs[k]/rounds, "count")
		L.set("engine.busy."+k+"_s", e.busy[k]/rounds, "s")
		allBusy += e.busy[k]
	}
	L.set("engine.queue_wait_s", e.queueWait/rounds, "s")
	L.set("engine.utilization", ratio(allBusy, float64(workers)*wall), "ratio")
	L.set("engine.cache_hit_ratio", ratio(e.hits, e.hits+e.misses), "ratio")
	L.set("engine.stream_stalls", e.stalls/rounds, "count")
	L.set("engine.retries", e.retries/rounds, "count")
}

// engineObserver turns engine job events into spans under root and into
// the tally. The sweep installs it as the engine's Observer; the service
// workload feeds it the engine events of one request's SSE stream. A
// job's queue wait runs from scheduled to started.
type engineObserver struct {
	rec    *recorder
	root   int    // parent of the job spans
	req    string // request the job spans belong to; "" names each by its job ID
	remote bool   // simulations wait on fleet workers, so they are not work spans
	tally  *engineTally

	mu        sync.Mutex
	scheduled map[string][]time.Time     // job ID → schedule times not yet started, FIFO
	waits     map[string][]time.Duration // job ID → waits of started jobs not yet finished, FIFO
}

func newEngineObserver(rec *recorder, root int, tally *engineTally) *engineObserver {
	return &engineObserver{rec: rec, root: root, tally: tally,
		scheduled: make(map[string][]time.Time), waits: make(map[string][]time.Duration)}
}

// layerKind folds the engine's job kinds onto the four the benchmark
// reports: uncached protocol runs are simulations too.
func layerKind(kind string) string {
	if kind == "protocol" {
		return "sim"
	}
	return kind
}

func (o *engineObserver) JobScheduled(_ context.Context, id, _, _ string) {
	o.scheduledAt(id, time.Now())
}

func (o *engineObserver) JobStarted(_ context.Context, id, _, _ string) {
	o.startedAt(id, time.Now())
}

func (o *engineObserver) JobFinished(_ context.Context, id, kind, _ string, d time.Duration, cacheHit bool, _ error) {
	o.finishedAt(id, kind, time.Now(), d, cacheHit)
}

func (o *engineObserver) StreamEnded(context.Context, string, int64, int64) {}

func (o *engineObserver) scheduledAt(id string, at time.Time) {
	o.mu.Lock()
	o.scheduled[id] = append(o.scheduled[id], at)
	o.mu.Unlock()
}

func (o *engineObserver) startedAt(id string, at time.Time) {
	o.mu.Lock()
	if q := o.scheduled[id]; len(q) > 0 {
		o.waits[id] = append(o.waits[id], at.Sub(q[0]))
		o.scheduled[id] = q[1:]
	}
	o.mu.Unlock()
}

// finishedAt records a job that ended at end after running for d.
func (o *engineObserver) finishedAt(id, kind string, end time.Time, d time.Duration, cacheHit bool) {
	k := layerKind(kind)
	req := o.req
	if req == "" {
		req = id
	}
	o.rec.add(span{Parent: o.root, Name: "job:" + id, Layer: "engine." + k, Req: req,
		Start: end.Add(-d), End: end, Work: !cacheHit && !(o.remote && k == "sim")})
	var wait time.Duration
	o.mu.Lock()
	if q := o.waits[id]; len(q) > 0 {
		wait = q[0]
		o.waits[id] = q[1:]
	}
	o.mu.Unlock()
	if !cacheHit {
		o.tally.ran(k, d, wait)
	}
}

// sweepWorkload measures the paper sweep. The seed does not apply: the
// paper fixes the trace seeds.
func sweepWorkload(cfg runConfig) (*outcome, error) {
	golden, err := os.ReadFile(sweepGolden)
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	want := strings.TrimSpace(string(golden))
	out := newOutcome()
	var ph phase
	for i := 0; i < setupRepeats; i++ {
		if err := ph.timeSetup(func() error {
			if s := runSweep(warmRefs, cfg.workers, nil, nil, 0); len(s.errs) > 0 {
				return fmt.Errorf("warm-up sweep: %s", strings.Join(s.errs, "; "))
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	check := func(s *sweepOut) {
		out.attempted++
		sum := sha256.Sum256([]byte(s.report))
		if got := hex.EncodeToString(sum[:]); len(s.errs) > 0 || got != want {
			out.failed++
			out.note("MISMATCH sweep report sha256 %s, golden %s; errors: %v", got, want, s.errs)
		}
	}
	ids := experimentIDs()

	// Untraced rounds give the end-to-end numbers.
	// No round's report.Context outlives its round: it holds the engine
	// and its caches, which would count in the next round's peak_rss_mb.
	budget := cfg.budget()
	start := time.Now()
	for n := 0; keepRunning(start, budget, n, 2); n++ {
		var s *sweepOut
		ph.round(func() error {
			s = runSweep(0, cfg.workers, nil, nil, 0)
			return nil
		})
		ph.refs = append(ph.refs, float64(s.ctx.Engine().Stats().RefsSimulated))
		ph.sweeps++
		for _, d := range s.durs {
			ph.latencyMS = append(ph.latencyMS, float64(d)/1e6)
		}
		check(s)
		if n == 0 {
			accuracyRow(out, s.ctx)
		}
	}
	out.e2e = ph.endToEnd()
	out.note("untraced %s", ph.describe())
	out.samples = len(ph.latencyMS)

	if !cfg.trace {
		return out, nil
	}
	// Traced rounds give the per-layer numbers.
	rec := &recorder{}
	var traced phase
	perExp := make([][]float64, len(ids))
	o := newEngineObserver(rec, 0, newEngineTally())
	start = time.Now()
	for n := 0; keepRunning(start, budget, n, 2); n++ {
		o.root = rec.open(0, fmt.Sprintf("round:%d", n), "bench", "", false)
		var s *sweepOut
		traced.round(func() error {
			s = runSweep(0, cfg.workers, o, rec, o.root)
			return nil
		})
		rec.finish(o.root)
		check(s)
		for i, d := range s.durs {
			perExp[i] = append(perExp[i], d.Seconds())
		}
		o.tally.add(s.ctx.Engine().Stats())
	}
	rounds := float64(len(traced.wall))
	L := out.layers
	o.tally.report(L, rounds, cfg.workers, sum(traced.wall))
	L.set("sim.merge_s", o.tally.busy["merge"]/rounds, "s")
	L.set("workload.gen_s", (o.tally.busy["trace"]+o.tally.busy["stream"])/rounds, "s")
	critical := 0.0
	for i, id := range ids {
		v := median(perExp[i])
		L.set("report."+id+"_s", v, "s")
		if v > critical {
			critical = v
		}
	}
	L.set("report.critical_s", critical, "s")
	out.finishTrace(rec, ph, traced, cfg)
	return out, nil
}

// accuracyRow prints Fig. 2's pipelined bus cycles per reference next to
// the paper's published values. It is informational, not gated: the
// model is checked against the paper's figures, not against hardware.
func accuracyRow(out *outcome, ctx *report.Context) {
	out.note("accuracy (informational; model vs the paper's published Fig. 2, not vs hardware):")
	for _, scheme := range []string{"Dir1NB", "WTI", "Dir0B", "Dragon"} {
		r, err := ctx.Merged(scheme)
		if err != nil {
			out.note("  %-7s error: %v", scheme, err)
			continue
		}
		got := r.PerRef("pipelined")
		paper := report.PaperCyclesPipelined[scheme]
		out.note("  %-7s pipelined cycles/ref %.4f  paper %.4f  error %+.1f%%",
			scheme, got, paper, 100*(got-paper)/paper)
	}
}

// experimentIDs lists the report's experiments in paper order.
func experimentIDs() []string {
	var ids []string
	for _, e := range report.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
