// Package sim drives trace simulations: it feeds a reference stream
// through a protocol engine, accumulates the Table 4 event frequencies,
// the Figure 1 invalidation histogram, and bus-cycle tallies under one or
// more cost models, and merges results across traces.
package sim

import (
	"fmt"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/network"
	"dirsim/internal/trace"
)

// DefaultBatchRefs is the number of references Simulate pulls from the
// source per NextBatch call when Options.BatchRefs is zero. It matches
// the engine's default streaming chunk so a streamed simulation consumes
// whole chunks without re-buffering.
const DefaultBatchRefs = 4096

// Options configures a simulation run.
type Options struct {
	// Models are the bus cost models to price the run under. When
	// empty, the paper's pipelined and non-pipelined models are used.
	Models []bus.Model
	// BatchRefs is the hot-loop batch size: how many references Simulate
	// pulls from the source per NextBatch call (default
	// DefaultBatchRefs). Results are bit-identical for every batch size —
	// the knob tunes amortization only.
	BatchRefs int
	// Topologies additionally prices the run on interconnection
	// networks (the Section 6 scalability analysis); results land in
	// Result.NetTallies keyed by topology name.
	Topologies []network.Topology
	// Check attaches a value-coherence checker to the engine and
	// verifies engine invariants periodically. Slower; used by tests.
	Check bool
	// InvariantEvery is how many references pass between invariant
	// checks when Check is set (default 8192).
	InvariantEvery int
	// Telemetry, when set, receives every coherence-relevant event (see
	// event.Result.CoherenceSignal) as it is recorded — the protocol
	// telemetry channel the observability layer samples into histograms
	// and trace instants. It is called from the simulation goroutine and
	// never changes the Result; nil (the default) costs one nil check per
	// reference. Under SimulateSharded the value is shared by every shard
	// behind a mutex, so event *order* across shards is scheduling-
	// dependent — results remain bit-identical regardless.
	Telemetry Telemetry
	// Shards is SimulateSharded's (and so SimulateTrace's) shard count:
	// n > 1 partitions the trace's references by block across n
	// concurrent protocol cores and merges the per-shard tallies —
	// bit-identical to one core. 0 or 1 runs one core inline on the
	// caller's goroutine; negative means runtime.GOMAXPROCS(0). Simulate
	// ignores it.
	Shards int
	// ShardObserver, when set, receives one ShardStat as each shard
	// worker finishes, plus one with Shard == -1 for the splitter — the
	// hook behind per-shard journal events and skew reporting. Calls are
	// serialized by SimulateSharded; a one-shard run never calls it.
	ShardObserver func(ShardStat)
	// ShardFault, when set, is invoked once at each shard worker's start;
	// a non-nil return (or a panic) fails that shard. It exists for fault
	// injection: the engine wires faults.Injector.ShardFault here so soak
	// tests can kill one shard and assert the others drain cleanly. A
	// one-shard run has no workers and never calls it.
	ShardFault func(shard int) error
}

// Telemetry receives coherence-relevant protocol events during a
// simulation. Implementations are called synchronously from the
// simulation hot loop and need not be safe for concurrent use: each
// Simulate call owns its Telemetry value.
type Telemetry interface {
	Coherence(out event.Result)
}

func (o Options) models() []bus.Model {
	if len(o.Models) == 0 {
		return []bus.Model{bus.Pipelined(), bus.NonPipelined()}
	}
	return o.Models
}

// Result holds everything measured in one run (or merged across runs) of
// one scheme.
type Result struct {
	// Scheme is the protocol name; Trace names the input (or the list
	// of merged inputs).
	Scheme string
	Trace  string

	// Counts is the Table 4 event-frequency table.
	Counts event.Counts
	// InvalClean is the Figure 1 histogram: the number of remote caches
	// holding a previously-clean block when it is written (events
	// wh-blk-cln and wm-blk-cln).
	InvalClean event.Hist
	// HoldersAtInval extends Figure 1's footnote: remote holders at
	// *every* reference that may require invalidations, including
	// misses to dirty blocks (which need exactly one).
	HoldersAtInval event.Hist

	// Broadcasts counts invalidations delivered by broadcast,
	// SeqInvals directed invalidation messages, ForcedInvals
	// pointer-overflow evictions (DiriNB), WriteBacks dirty flushes.
	Broadcasts   int64
	SeqInvals    int64
	ForcedInvals int64
	WriteBacks   int64

	// Tallies holds one bus-cycle tally per cost model, keyed by model
	// name.
	Tallies map[string]*bus.Tally
	// NetTallies holds one network tally per topology, keyed by
	// topology name (present only when Options.Topologies was set).
	NetTallies map[string]*network.Tally
}

// Tally returns the tally for the named bus model, or nil.
func (r *Result) Tally(model string) *bus.Tally { return r.Tallies[model] }

// PerRef returns bus cycles per reference under the named model (0 when
// the model was not priced).
func (r *Result) PerRef(model string) float64 {
	t := r.Tallies[model]
	if t == nil {
		return 0
	}
	return t.PerRef()
}

// Simulate runs the protocol over the stream and returns the measurements.
func Simulate(p core.Protocol, src trace.Source, opts Options) (*Result, error) {
	r, err := newRunner(p, src.CPUCount(), opts)
	if err != nil {
		return nil, err
	}
	// References move in batches through two reusable buffers (refs in,
	// classifications out), so the steady-state loop allocates nothing
	// and pays the Source interface dispatch once per batch instead of
	// once per reference.
	bsrc := trace.Batched(src)
	buf := make([]trace.Ref, r.batch)
	return r.run("sim: ", func() []trace.Ref { return buf[:bsrc.NextBatch(buf)] })
}

// runner is one protocol core ready to simulate: the single simulation
// loop behind both Simulate and each SimulateSharded worker.
type runner struct {
	p       core.Protocol
	checker *core.Checker
	opts    Options
	batch   int   // resolved Options.BatchRefs
	every   int64 // resolved Options.InvariantEvery
	n       int64 // references simulated so far
}

// newRunner validates p against a source with cpus processors and
// attaches a coherence checker when opts.Check is set.
func newRunner(p core.Protocol, cpus int, opts Options) (runner, error) {
	if cpus > p.CPUs() {
		return runner{}, fmt.Errorf("sim: trace has %d CPUs but %s engine simulates %d",
			cpus, p.Name(), p.CPUs())
	}
	r := runner{p: p, opts: opts, batch: opts.BatchRefs, every: int64(opts.InvariantEvery)}
	if r.batch <= 0 {
		r.batch = DefaultBatchRefs
	}
	if r.every <= 0 {
		r.every = 8192
	}
	if opts.Check {
		r.checker = core.NewChecker()
		if !core.Attach(p, r.checker) {
			return runner{}, fmt.Errorf("sim: %s does not support coherence checking", p.Name())
		}
	}
	return r, nil
}

// run simulates every batch next returns until it returns an empty one,
// then runs the end-of-run checks. prefix heads the message of an
// invariant violation found mid-run ("sim: " for Simulate; shard workers
// wrap the error in a *ShardError instead).
func (r *runner) run(prefix string, next func() []trace.Ref) (*Result, error) {
	p, tel := r.p, r.opts.Telemetry
	res, busTallies, netTallies := newResult(p.Name(), r.opts)
	outs := make([]event.Result, 0, r.batch)
	for buf := next(); len(buf) > 0; buf = next() {
		if r.opts.Check {
			// The checked path stays per-reference so invariant
			// violations are pinned to the exact reference count that
			// exposed them, batch boundaries notwithstanding.
			for _, ref := range buf {
				res.record(p.Access(ref), busTallies, netTallies, tel)
				r.n++
				if r.n%r.every == 0 {
					if err := p.CheckInvariants(); err != nil {
						return nil, fmt.Errorf("%safter %d refs: %w", prefix, r.n, err)
					}
				}
			}
			continue
		}
		outs = core.AccessBatch(p, buf, outs[:0])
		for i := range outs {
			res.record(outs[i], busTallies, netTallies, tel)
		}
		r.n += int64(len(buf))
	}
	if r.opts.Check {
		if err := p.CheckInvariants(); err != nil {
			return nil, err
		}
		if err := r.checker.Err(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// newResult builds an empty Result for one simulation (or one shard of
// one) with its tallies instantiated from opts. The Tallies/NetTallies
// maps are the stable public shape of the result, but iterating them per
// reference costs more than pricing does; the returned slices are the
// pre-resolved views the hot loop walks instead. Accumulation order
// across tallies is irrelevant — each tally only ever adds to itself — so
// results stay bit-identical whatever the map iteration order.
func newResult(scheme string, opts Options) (*Result, []*bus.Tally, []*network.Tally) {
	res := &Result{
		Scheme:  scheme,
		Tallies: make(map[string]*bus.Tally),
	}
	for _, m := range opts.models() {
		res.Tallies[m.Name] = bus.NewTally(m)
	}
	if len(opts.Topologies) > 0 {
		res.NetTallies = make(map[string]*network.Tally)
		for _, topo := range opts.Topologies {
			res.NetTallies[topo.Name] = network.NewTally(topo)
		}
	}
	busTallies := make([]*bus.Tally, 0, len(res.Tallies))
	for _, t := range res.Tallies {
		busTallies = append(busTallies, t)
	}
	var netTallies []*network.Tally
	if len(res.NetTallies) > 0 {
		netTallies = make([]*network.Tally, 0, len(res.NetTallies))
		for _, t := range res.NetTallies {
			netTallies = append(netTallies, t)
		}
	}
	return res, busTallies, netTallies
}

// record accumulates one classified reference. The tally lists are the
// pre-resolved values of r.Tallies/r.NetTallies; runner.run binds them once
// so this stays free of map iteration. tel, when non-nil, is forwarded
// every coherence-relevant event; it observes but never alters the
// result, so the batched/sequential bit-identity guarantees hold with
// telemetry on or off.
func (r *Result) record(out event.Result, busTallies []*bus.Tally, netTallies []*network.Tally, tel Telemetry) {
	if tel != nil && out.CoherenceSignal() {
		tel.Coherence(out)
	}
	r.Counts.Add(out.Type)
	switch out.Type {
	case event.WrHitClean, event.WrMissClean:
		r.InvalClean.Observe(out.Holders)
		r.HoldersAtInval.Observe(out.Holders)
	case event.WrMissDirty, event.RdMissDirty:
		r.HoldersAtInval.Observe(out.Holders)
	}
	if out.Quiet() {
		// Hits and instruction fetches — the bulk of every trace — touch
		// no traffic counter, and every cost model prices them at zero;
		// each tally just sees one more free reference. Checking once
		// here spares pricing the result under every model separately.
		for _, t := range busTallies {
			t.Refs++
		}
		for _, t := range netTallies {
			t.Refs++
		}
		return
	}
	if out.Broadcast && !out.Update {
		r.Broadcasts++
	}
	r.SeqInvals += int64(out.Inval)
	r.ForcedInvals += int64(out.ForcedInval)
	if out.WriteBack {
		r.WriteBacks++
	}
	for _, t := range busTallies {
		t.Add(out)
	}
	for _, t := range netTallies {
		t.Add(out)
	}
}

// SimulateTrace builds the named scheme for the trace's CPU count and runs
// it over the whole trace through SimulateSharded, so Options.Shards picks
// the shard count; results are bit-identical at every count.
func SimulateTrace(scheme string, t *trace.Trace, opts Options) (*Result, error) {
	res, err := SimulateSharded(func() (core.Protocol, error) {
		return core.NewByName(scheme, t.CPUs)
	}, t.Iterator(), opts)
	if err != nil {
		return nil, err
	}
	res.Trace = t.Name
	return res, nil
}

// Merge combines results of the same scheme over different traces into an
// aggregate (totals are summed, so per-reference metrics become
// reference-weighted averages, the same averaging Table 4 uses).
func Merge(results ...*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("sim: nothing to merge")
	}
	out := &Result{
		Scheme:  results[0].Scheme,
		Trace:   results[0].Trace,
		Tallies: make(map[string]*bus.Tally),
	}
	for name, t := range results[0].Tallies {
		out.Tallies[name] = bus.NewTally(t.Model)
	}
	if len(results[0].NetTallies) > 0 {
		out.NetTallies = make(map[string]*network.Tally)
		for name, t := range results[0].NetTallies {
			out.NetTallies[name] = network.NewTally(t.Topo)
		}
	}
	for i, r := range results {
		if r.Scheme != out.Scheme {
			return nil, fmt.Errorf("sim: merging %s into %s", r.Scheme, out.Scheme)
		}
		if i > 0 {
			out.Trace += "+" + r.Trace
		}
		out.Counts.AddCounts(r.Counts)
		out.InvalClean.AddHist(r.InvalClean)
		out.HoldersAtInval.AddHist(r.HoldersAtInval)
		out.Broadcasts += r.Broadcasts
		out.SeqInvals += r.SeqInvals
		out.ForcedInvals += r.ForcedInvals
		out.WriteBacks += r.WriteBacks
		for name, t := range r.Tallies {
			dst := out.Tallies[name]
			if dst == nil {
				return nil, fmt.Errorf("sim: model %q missing from first result", name)
			}
			dst.Merge(t)
		}
		// The reverse mismatch — the first result priced a model this one
		// did not — would otherwise merge silently and skew the
		// reference-weighted averages (the missing tally's Refs never
		// arrive).
		if len(r.Tallies) != len(out.Tallies) {
			return nil, fmt.Errorf("sim: result %q has %d cost models, first has %d",
				r.Trace, len(r.Tallies), len(out.Tallies))
		}
		for name, t := range r.NetTallies {
			dst := out.NetTallies[name]
			if dst == nil {
				return nil, fmt.Errorf("sim: topology %q missing from first result", name)
			}
			dst.Merge(t)
		}
		if len(r.NetTallies) != len(out.NetTallies) {
			return nil, fmt.Errorf("sim: result %q has %d topologies, first has %d",
				r.Trace, len(r.NetTallies), len(out.NetTallies))
		}
	}
	return out, nil
}
