package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// Long-trace shape: 4x the paper sweep's CPUs and (through the profile's
// CPU scaling) its blocks, and 10x its default trace length.
const (
	longCPUs = 16
	longRefs = 4_000_000
)

// longTraceWorkload measures one big generated POPS trace: decoded from
// its binary file, then simulated once per scheme, block-sharded across
// nproc cores, as `dirsim -trace f -shards -1` does.
func longTraceWorkload(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var ph phase
	wcfg := workload.POPSConfig(longCPUs, longRefs)
	wcfg.Seed = mix(cfg.seed, 0x10f7)
	path := filepath.Join(cfg.tmp, "long.trace")
	// The generated trace is dropped after set-up, so the timed rounds'
	// peak_rss_mb holds only what the program decodes and simulates; the
	// reference pass regenerates it (generation is deterministic).
	var refs float64
	var genTimes []float64
	for i := 0; i < setupRepeats; i++ {
		if err := ph.timeSetup(func() error {
			t0 := time.Now()
			t, err := workload.Generate(wcfg)
			if err != nil {
				return err
			}
			genTimes = append(genTimes, time.Since(t0).Seconds())
			refs = float64(t.Len())
			return writeTrace(path, t)
		}); err != nil {
			return nil, fmt.Errorf("set up long trace: %w", err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	fileMB := float64(fi.Size()) / 1e6

	// rounds[r][s] is the fingerprint round r got for schemes[s].
	var got [][]uint64
	var decode []float64
	roundFn := func(p *phase, rec *recorder, shards *shardTally) error {
		root := rec.open(0, fmt.Sprintf("round:%d", len(p.wall)), "bench", "", false)
		defer rec.finish(root)
		return p.round(func() error {
			sp := rec.open(root, "decode", "trace", "", true)
			t0 := time.Now()
			t, err := readTrace(path)
			decode = append(decode, time.Since(t0).Seconds())
			rec.finish(sp)
			if err != nil {
				return err
			}
			fps := make([]uint64, len(schemes))
			for i, s := range schemes {
				sp := rec.open(root, "simulate:"+s, "sim", s, true)
				opts := sim.Options{Shards: cfg.workers}
				if rec != nil {
					opts.ShardObserver = shards.observe(rec, sp, s)
				}
				t0 := time.Now()
				r, err := sim.SimulateTrace(s, t, opts)
				p.latencyMS = append(p.latencyMS, float64(time.Since(t0))/1e6)
				rec.finish(sp)
				if err != nil {
					return fmt.Errorf("%s: %w", s, err)
				}
				fps[i] = r.Fingerprint()
				shards.sharded[s] += time.Since(t0)
			}
			got = append(got, fps)
			p.refs = append(p.refs, refs*float64(len(schemes)))
			p.sweeps++
			return nil
		})
	}

	budget := cfg.budget()
	start := time.Now()
	for n := 0; keepRunning(start, budget, n, 3); n++ {
		if err := roundFn(&ph, nil, newShardTally()); err != nil {
			return nil, err
		}
	}
	out.e2e = ph.endToEnd()
	out.note("untraced %s", ph.describe())
	out.samples = len(ph.latencyMS)

	var traced phase
	var rec *recorder
	tally := newShardTally()
	if cfg.trace {
		rec = &recorder{}
		decode = decode[:0]
		start = time.Now()
		for n := 0; keepRunning(start, budget, n, 2); n++ {
			if err := roundFn(&traced, rec, tally); err != nil {
				return nil, err
			}
		}
	}

	// Correctness: every round's result must equal a sequential
	// simulation of the same trace, computed outside the timed rounds.
	orig, err := workload.Generate(wcfg)
	if err != nil {
		return nil, fmt.Errorf("regenerate long trace: %w", err)
	}
	seq := make(map[string]time.Duration)
	for i, s := range schemes {
		t0 := time.Now()
		r, err := sim.SimulateTrace(s, orig, sim.Options{})
		seq[s] = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s, err)
		}
		want := r.Fingerprint()
		for ri, fps := range got {
			out.attempted++
			if fps[i] != want {
				out.failed++
				out.note("MISMATCH round %d %s fingerprint %016x, sequential %016x", ri, s, fps[i], want)
			}
		}
	}
	if !cfg.trace {
		return out, nil
	}

	L := out.layers
	rounds := float64(len(traced.wall))
	L.set("trace.decode_s", median(decode), "s")
	L.set("trace.decode_mb_per_s", fileMB/median(decode), "MB/s")
	L.set("workload.gen_s", median(genTimes), "s")
	L.set("workload.refs", refs, "count")
	var seqAll, shAll time.Duration
	for _, s := range schemes {
		ns, allocs := coreProbe(s, orig)
		L.set("core."+s+".ns_per_ref", ns, "ns")
		L.set("core."+s+".allocs_per_ref", allocs, "count")
		L.set("sim."+s+".price_ns_per_ref", float64(seq[s].Nanoseconds())/refs-ns, "ns")
		seqAll += seq[s]
		shAll += tally.sharded[s]
	}
	L.set("sim.shard.split_s", tally.split.Seconds()/rounds, "s")
	L.set("sim.shard.busy_s", tally.busy.Seconds()/rounds, "s")
	L.set("sim.shard.skew", median(tally.skew), "ratio")
	L.set("sim.shard.speedup", ratio(seqAll.Seconds(), shAll.Seconds()/rounds), "ratio")
	out.finishTrace(rec, ph, traced, cfg)
	return out, nil
}

// shardTally accumulates the ShardObserver hook's reports.
type shardTally struct {
	mu          sync.Mutex
	split, busy time.Duration
	skew        []float64 // per simulation: slowest shard / fastest shard
	sharded     map[string]time.Duration
}

func newShardTally() *shardTally { return &shardTally{sharded: make(map[string]time.Duration)} }

// observe returns the ShardObserver for one sharded simulation. Once
// every shard and the splitter have reported, the splitter becomes a span
// under parent with the shards as its children, and their times add to
// the tally.
func (t *shardTally) observe(rec *recorder, parent int, scheme string) func(sim.ShardStat) {
	var stats []sim.ShardStat
	return func(st sim.ShardStat) {
		end := time.Now()
		stats = append(stats, st)
		if len(stats) < st.Shards+1 {
			return
		}
		var split sim.ShardStat
		var lo, hi, busy time.Duration
		for i, s := range stats {
			if s.Shard < 0 {
				split = s
				continue
			}
			busy += s.Elapsed
			if i == 0 || lo == 0 || s.Elapsed < lo {
				lo = s.Elapsed
			}
			hi = max(hi, s.Elapsed)
		}
		sp := rec.add(span{Parent: parent, Name: "split", Layer: "sim.shard", Req: scheme,
			Start: end.Add(-split.Elapsed), End: end, Work: true})
		for _, s := range stats {
			if s.Shard >= 0 {
				rec.add(span{Parent: sp, Name: fmt.Sprintf("shard:%d", s.Shard), Layer: "sim.shard",
					Req: scheme, Start: end.Add(-s.Elapsed), End: end, Work: true})
			}
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		t.split += split.Elapsed
		t.busy += busy
		if lo > 0 {
			t.skew = append(t.skew, float64(hi)/float64(lo))
		}
	}
}

// coreProbe times one sequential classification pass of the scheme's
// core over the trace through core.AccessBatch, returning ns and heap
// allocations per reference.
func coreProbe(scheme string, t *trace.Trace) (nsPerRef, allocsPerRef float64) {
	p, err := core.NewByName(scheme, t.CPUs)
	if err != nil {
		return 0, 0
	}
	buf := make([]event.Result, 0, sim.DefaultBatchRefs)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < len(t.Refs); i += sim.DefaultBatchRefs {
		j := min(i+sim.DefaultBatchRefs, len(t.Refs))
		buf = core.AccessBatch(p, t.Refs[i:j], buf[:0])
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(len(t.Refs))
	return float64(d.Nanoseconds()) / n, float64(m1.Mallocs-m0.Mallocs) / n
}

func writeTrace(path string, t *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadBinary(bufio.NewReaderSize(f, 1<<16))
}
