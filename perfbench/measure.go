package main

import (
	"fmt"
	"math"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one printed number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; every workload fills the same
// names so each run prints the full list.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB returns the memory the Go runtime holds from the OS and has
// not released back: the program's resident heap, stacks and runtime
// structures.
func residentMB(samples []rtmetrics.Sample) float64 {
	rtmetrics.Read(samples)
	return float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / (1 << 20)
}

// peakDuring runs fn while sampling residentMB every millisecond and
// returns the highest reading.
func peakDuring(fn func() error) (peakMB float64, err error) {
	samples := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := residentMB(samples)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- max(peak, residentMB(samples))
				return
			case <-tick.C:
				peak = max(peak, residentMB(samples))
			}
		}
	}()
	err = fn()
	close(stop)
	return <-done, err
}

// phase accumulates the per-round samples every workload reports as its
// end-to-end metrics.
type phase struct {
	setup     []float64 // seconds per set-up
	wall      []float64 // seconds per round
	cpu       []float64 // CPU seconds per round
	refs      []float64 // simulated references per round
	sweeps    float64   // sweeps completed across rounds
	latencyMS []float64 // per-request latency samples
	peakMB    []float64 // peak resident memory per round
}

// round times one round of work: fn's wall and CPU time and its peak
// resident memory become samples. Each round starts from a collected
// heap with free memory returned to the OS, as a fresh process would.
func (p *phase) round(fn func() error) error {
	debug.FreeOSMemory()
	c0 := cpuTime()
	t0 := time.Now()
	peak, err := peakDuring(fn)
	p.wall = append(p.wall, time.Since(t0).Seconds())
	p.cpu = append(p.cpu, (cpuTime() - c0).Seconds())
	p.peakMB = append(p.peakMB, peak)
	return err
}

// timeSetup times one set-up, starting from a collected heap.
func (p *phase) timeSetup(fn func() error) error {
	debug.FreeOSMemory()
	t0 := time.Now()
	err := fn()
	p.setup = append(p.setup, time.Since(t0).Seconds())
	return err
}

// endToEnd renders the phase as the benchmark's end-to-end metrics.
func (p *phase) endToEnd() metrics {
	m := metrics{}
	m.set("setup_s", median(p.setup), "s")
	m.set("wall_s", median(p.wall), "s")
	m.set("cpu_s", median(p.cpu), "s")
	perRound := make([]float64, len(p.wall))
	for i := range p.wall {
		perRound[i] = ratio(p.refs[i], p.wall[i])
	}
	m.set("refs_per_s", median(perRound), "refs/s")
	m.set("latency_p50_ms", quantile(p.latencyMS, 0.5), "ms")
	m.set("latency_p90_ms", quantile(p.latencyMS, 0.9), "ms")
	m.set("sweeps_per_s", ratio(p.sweeps, sum(p.wall)), "1/s")
	return m
}

// describe summarizes the samples behind the end-to-end numbers.
func (p *phase) describe() string {
	f := func(xs []float64) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprintf("%.3f", x)
		}
		return strings.Join(parts, " ")
	}
	return fmt.Sprintf("rounds %d; wall_s [%s]; cpu_s [%s]; peak_rss_mb [%s]; setup_s [%s]; latency samples %d",
		len(p.wall), f(p.wall), f(p.cpu), f(p.peakMB), f(p.setup), len(p.latencyMS))
}

// keepRunning reports whether another round fits: rounds continue until
// the budget is spent and at least minRounds have run.
func keepRunning(start time.Time, budget time.Duration, done, minRounds int) bool {
	return done < minRounds || time.Since(start) < budget
}
