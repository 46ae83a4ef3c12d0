package engine

import (
	"context"
	"sync"
)

// flightCache is a keyed single-flight cache: the first claimant of a key
// owns the computation while concurrent claimants wait for its result.
// Fulfilled values are retained for the engine's lifetime — the working
// sets here (a handful of traces and a few hundred merged results) are
// small next to one materialized trace, so no eviction policy is needed
// yet. Failed computations are evicted so a later claimant can retry.
type flightCache struct {
	mu sync.Mutex
	m  map[Key]*flight
}

type flight struct {
	done chan struct{}
	val  any
	err  error
	// sum is the integrity stamp recorded when the value entered the
	// cache (a content fingerprint of the result or trace); stamped marks
	// it valid. In verification mode every later hit recomputes the
	// fingerprint and compares: a mismatch means the cached value mutated
	// after the fact, and the entry is evicted and recomputed instead of
	// served.
	sum     uint64
	stamped bool
}

func newFlightCache() *flightCache {
	return &flightCache{m: make(map[Key]*flight)}
}

// claim returns the flight for k and whether the caller owns it. An owner
// must call fulfillStamped exactly once; a non-owner waits on the flight.
func (c *flightCache) claim(k Key) (f *flight, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.m[k]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.m[k] = f
	return f, true
}

// peek reports whether k is present, fulfilled or in flight.
func (c *flightCache) peek(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[k]
	return ok
}

// fulfillStamped publishes the owner's result to all waiters, with an
// integrity stamp recorded alongside the value when stamped is set.
// Errors evict the entry first, so the computation can be retried by a
// later claimant.
func (c *flightCache) fulfillStamped(k Key, f *flight, val any, err error, sum uint64, stamped bool) {
	if err != nil {
		c.mu.Lock()
		delete(c.m, k)
		c.mu.Unlock()
	}
	f.sum, f.stamped = sum, stamped && err == nil
	f.val, f.err = val, err
	close(f.done)
}

// evict removes k if it still maps to f, so a reader that found the entry
// corrupted can force a recompute without racing a fresh claimant that
// already replaced it.
func (c *flightCache) evict(k Key, f *flight) {
	c.mu.Lock()
	if c.m[k] == f {
		delete(c.m, k)
	}
	c.mu.Unlock()
}

// wait blocks until the flight is fulfilled or the context is cancelled.
func (f *flight) wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// size returns the number of entries, fulfilled or in flight.
func (c *flightCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
