package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions and hooks. Spans of one request or job
// share Req; Parent links a span to the span that caused it.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Layer  string    `json:"layer"`
	Req    string    `json:"req"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Work marks spans that occupy a core for their self time; spans
	// that only wait on others (a request waiting for its simulations)
	// are recorded but not counted as work.
	Work bool `json:"work"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced rounds pay only a nil check.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID (0 when r is nil).
func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// open records a span whose end is not yet known; close it with finish.
func (r *recorder) open(parent int, name, layer, req string, work bool) int {
	return r.add(span{Parent: parent, Name: name, Layer: layer, Req: req, Start: time.Now(), Work: work})
}

// finish sets the end of an open span.
func (r *recorder) finish(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// interval is a stretch of time.
type interval struct{ a, b time.Time }

// account returns each layer's self time — every span's duration minus
// the part of its interval its child spans cover — and the core-time the
// work spans' self intervals account for, counting at most workers of
// them at any instant.
func (r *recorder) account(workers int) (byLayer map[string]time.Duration, attributed time.Duration) {
	byLayer = make(map[string]time.Duration)
	if r == nil {
		return byLayer, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	type edge struct {
		t     time.Time
		delta int
	}
	var edges []edge
	for _, s := range r.spans {
		for _, iv := range selfIntervals(interval{s.Start, s.End}, children[s.ID]) {
			byLayer[s.Layer] += iv.b.Sub(iv.a)
			if s.Work {
				edges = append(edges, edge{iv.a, 1}, edge{iv.b, -1})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t.Before(edges[j].t) })
	active := 0
	for i, e := range edges {
		if i > 0 && active > 0 {
			attributed += time.Duration(min(active, workers)) * e.t.Sub(edges[i-1].t)
		}
		active += e.delta
	}
	return byLayer, attributed
}

// selfIntervals returns the parts of span not covered by any of kids.
func selfIntervals(span interval, kids []interval) []interval {
	sort.Slice(kids, func(i, j int) bool { return kids[i].a.Before(kids[j].a) })
	var out []interval
	cur := span.a
	for _, k := range kids {
		if k.a.After(cur) {
			out = append(out, interval{cur, minTime(k.a, span.b)})
		}
		if k.b.After(cur) {
			cur = k.b
		}
		if !cur.Before(span.b) {
			return out
		}
	}
	if span.b.After(cur) {
		out = append(out, interval{cur, span.b})
	}
	return out
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// unattributedShare is the share of the core-time the traced rounds had
// (wall × workers) that no work span's self time accounts for.
func (r *recorder) unattributedShare(wall float64, workers int) float64 {
	_, attributed := r.account(workers)
	avail := wall * float64(workers)
	return ratio(avail-attributed.Seconds(), avail)
}

// write saves the spans as JSON lines to path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
