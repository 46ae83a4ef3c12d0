// Command perfbench is dirsim's benchmark: one process that measures one
// workload per invocation, checks the program's outputs, and prints every
// metric by name with its unit. Run it from the repository root through
// perfbench/run.sh:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics from untraced rounds; --trace 1
// runs untraced and traced rounds and prints the per-layer metrics, the
// tracing overhead, and the share of core-time no layer span accounts
// for. The last line of standard output is the JSON result; each run also
// appends a summary to perfbench/history.jsonl. See perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times each run sets up; setup_s is the median.
const setupRepeats = 3

// schemes are the paper's schemes the long-trace workload and the core
// and sim layer probes cover.
var schemes = []string{"Dir1NB", "Dir0B", "DirNNB", "Dir4B", "Dir4NB", "WTI", "Dragon"}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workers  int    // nproc: engine workers, shards, clients, fleet workers
	tmp      string // scratch directory inside the checkout
}

// budget is the measuring time per phase: the whole run untraced, or
// half each for the untraced and traced phases of a traced run.
func (c runConfig) budget() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

// mix derives an input seed from the benchmark seed and a salt.
func mix(seed, salt uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 + salt
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	if x == 0 {
		x = 1
	}
	return x
}

// outcome is one run's measurements and correctness tally.
type outcome struct {
	attempted, failed int
	e2e               metrics
	layers            metrics
	samples           int // latency samples behind the p50/p90
	lines             []string
}

func newOutcome() *outcome {
	o := &outcome{layers: metrics{}}
	for _, l := range layerMetrics() {
		o.layers.set(l.name, 0, l.unit)
	}
	return o
}

func (o *outcome) note(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// finishTrace records the untraced rounds' peak memory, the tracing
// overhead and the unattributed share of the traced rounds, and writes
// their spans out. Peak memory is not an end-to-end metric: it moves too
// much between rounds for a bound to hold (see README.md).
func (o *outcome) finishTrace(rec *recorder, untraced, traced phase, cfg runConfig) {
	o.layers.set("peak_rss_mb", median(untraced.peakMB), "MB")
	o.layers.set("obs.trace_overhead", ratio(median(traced.wall), median(untraced.wall))-1, "ratio")
	o.layers.set("obs.unattributed_share", rec.unattributedShare(sum(traced.wall), cfg.workers), "ratio")
	byLayer, _ := rec.account(cfg.workers)
	names := make([]string, 0, len(byLayer))
	for n := range byLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	o.note("layer self time over %d traced rounds (%.2fs wall x %d workers):",
		len(traced.wall), sum(traced.wall), cfg.workers)
	for _, n := range names {
		o.note("  %-16s %8.3fs", n, byLayer[n].Seconds())
	}
	path := filepath.Join("perfbench", "spans", cfg.workload+".jsonl")
	if err := rec.write(path); err != nil {
		o.note("spans: %v", err)
	} else {
		o.note("spans written to %s", path)
	}
}

// layerMetric names one per-layer metric.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric in print order; a workload
// that bypasses a layer reports it as 0.
func layerMetrics() []layerMetric {
	l := []layerMetric{
		{"trace.decode_s", "s"}, {"trace.decode_mb_per_s", "MB/s"},
		{"workload.gen_s", "s"}, {"workload.refs", "count"},
	}
	for _, s := range schemes {
		l = append(l, layerMetric{"core." + s + ".ns_per_ref", "ns"},
			layerMetric{"core." + s + ".allocs_per_ref", "count"})
	}
	for _, s := range schemes {
		l = append(l, layerMetric{"sim." + s + ".price_ns_per_ref", "ns"})
	}
	l = append(l, layerMetric{"sim.shard.split_s", "s"}, layerMetric{"sim.shard.busy_s", "s"},
		layerMetric{"sim.shard.skew", "ratio"}, layerMetric{"sim.shard.speedup", "ratio"},
		layerMetric{"sim.merge_s", "s"})
	for _, k := range []string{"trace", "stream", "sim", "merge"} {
		l = append(l, layerMetric{"engine.jobs." + k, "count"})
	}
	for _, k := range []string{"trace", "stream", "sim", "merge"} {
		l = append(l, layerMetric{"engine.busy." + k + "_s", "s"})
	}
	l = append(l, layerMetric{"engine.queue_wait_s", "s"}, layerMetric{"engine.utilization", "ratio"},
		layerMetric{"engine.cache_hit_ratio", "ratio"}, layerMetric{"engine.stream_stalls", "count"},
		layerMetric{"engine.retries", "count"})
	for _, id := range experimentIDs() {
		l = append(l, layerMetric{"report." + id + "_s", "s"})
	}
	l = append(l, layerMetric{"report.critical_s", "s"},
		layerMetric{"store.hits", "count"}, layerMetric{"store.misses", "count"},
		layerMetric{"store.hit_ratio", "ratio"}, layerMetric{"store.writes", "count"},
		layerMetric{"store.rejected", "count"}, layerMetric{"store.write_mb", "MB"},
		layerMetric{"store.load_ms", "ms"}, layerMetric{"store.store_ms", "ms"},
		layerMetric{"service.repeat_share", "ratio"}, layerMetric{"service.admission_wait_ms", "ms"},
		layerMetric{"service.run_ms", "ms"}, layerMetric{"service.http_ms", "ms"},
		layerMetric{"service.response_kb", "KB"}, layerMetric{"service.rejected", "count"},
		layerMetric{"dist.lease_ms", "ms"}, layerMetric{"dist.push_ms", "ms"},
		layerMetric{"dist.heartbeats", "count"}, layerMetric{"dist.requeued", "count"},
		layerMetric{"dist.hedged", "count"}, layerMetric{"dist.degraded", "count"},
		layerMetric{"dist.rejected", "count"}, layerMetric{"dist.remote_share", "ratio"},
		layerMetric{"dist.worker_utilization", "ratio"},
		layerMetric{"peak_rss_mb", "MB"}, layerMetric{"obs.trace_overhead", "ratio"}, layerMetric{"obs.unattributed_share", "ratio"},
		layerMetric{"error_ratio", "ratio"}, layerMetric{"latency_samples", "count"})
	return l
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"sweep":      sweepWorkload,
	"long-trace": longTraceWorkload,
	"service":    func(c runConfig) (*outcome, error) { return serviceWorkload(c, false) },
	"fleet":      func(c runConfig) (*outcome, error) { return serviceWorkload(c, true) },
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep, long-trace, service or fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measuring time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {sweep|long-trace|service|fleet}, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.workers = runtime.GOMAXPROCS(0)
	cfg.tmp = filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	os.RemoveAll(cfg.tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, cfg, out)
}

// stamp identifies the box, toolchain, code and inputs of a run.
type stamp struct {
	Time       string `json:"time"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func newStamp(cfg runConfig) stamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return stamp{
		Time: time.Now().UTC().Format(time.RFC3339), Workload: cfg.workload, Seed: cfg.seed,
		Seconds: cfg.seconds, Trace: cfg.trace, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Source: sourceDigest(),
	}
}

// sourceDigest hashes the repository's Go sources, so a run outside a git
// checkout still names the code it measured.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// printResult prints the human-readable lines, appends the run to the
// history file, and prints the JSON result as the last line.
func printResult(w io.Writer, cfg runConfig, out *outcome) {
	st := newStamp(cfg)
	errRatio := ratio(float64(out.failed), float64(out.attempted))
	out.layers.set("error_ratio", errRatio, "ratio")
	out.layers.set("latency_samples", float64(out.samples), "count")
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%t num_cpu=%d gomaxprocs=%d %s commit=%s source=%s\n",
		st.Workload, st.Seed, st.Seconds, st.Trace, st.NumCPU, st.GOMAXPROCS, st.GoVersion, st.Commit, st.Source)
	for _, l := range out.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "correctness: %d attempted, %d failed, error_ratio %.4f\n", out.attempted, out.failed, errRatio)
	fmt.Fprintf(w, "latency samples: %d\n", out.samples)

	printed := out.e2e
	if cfg.trace {
		printed = out.layers
	}
	names := make([]string, 0, len(printed))
	for n := range printed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, printed[n].Value, printed[n].Unit)
	}

	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, printed}
	appendHistory(st, res)
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

// appendHistory adds the run to perfbench/history.jsonl, so repeated runs
// build a trajectory instead of overwriting one another.
func appendHistory(st stamp, res any) {
	f, err := os.OpenFile(filepath.Join("perfbench", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: history:", err)
		return
	}
	line, _ := json.Marshal(struct {
		Stamp  stamp `json:"stamp"`
		Result any   `json:"result"`
	}{st, res})
	if _, err := f.Write(append(line, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: history:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: history:", err)
	}
}
