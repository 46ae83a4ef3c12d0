package core

import (
	"errors"
	"math"
	"testing"

	"dirsim/internal/trace"
)

type storeEntry struct {
	n    int
	seen bool
}

// TestBlockStoreBoundaries writes distinct values at page edges and at
// the extremes of the block space, then reads them all back.
func TestBlockStoreBoundaries(t *testing.T) {
	blocks := []trace.Block{
		0,
		storePageSize - 1, // last entry of the first page
		storePageSize,     // first entry of the second page
		storePageSize + 1,
		math.MaxUint64, // largest block: last entry of the last page
		math.MaxUint64 - storePageSize,
	}
	var s BlockStore[storeEntry]
	for i, b := range blocks {
		e := s.At(b)
		if *e != (storeEntry{}) {
			t.Fatalf("block %#x: fresh entry reads %+v, want zero", b, *e)
		}
		e.n, e.seen = i+1, true
	}
	for i, b := range blocks {
		if got := s.At(b).n; got != i+1 {
			t.Errorf("block %#x: got %d, want %d", b, got, i+1)
		}
	}
}

// TestBlockStoreAlternatingPages ping-pongs between two pages, so every
// lookup misses the last-page cache, and checks no write is lost.
func TestBlockStoreAlternatingPages(t *testing.T) {
	var s BlockStore[int]
	a, b := trace.Block(3), trace.Block(7*storePageSize+3)
	for i := 0; i < 1000; i++ {
		*s.At(a) += 1
		*s.At(b) += 2
	}
	if *s.At(a) != 1000 || *s.At(b) != 2000 {
		t.Fatalf("got %d and %d, want 1000 and 2000", *s.At(a), *s.At(b))
	}
	if p := s.At(a); p != s.At(a) || p == s.At(b) {
		t.Fatal("entries must have stable, distinct addresses")
	}
}

// TestBlockStoreZeroIsFresh checks that an entry reset to the zero value
// reads as never referenced and is skipped by iteration.
func TestBlockStoreZeroIsFresh(t *testing.T) {
	var s BlockStore[storeEntry]
	*s.At(42) = storeEntry{n: 1, seen: true}
	*s.At(42) = storeEntry{}
	if *s.At(42) != (storeEntry{}) {
		t.Fatal("reset entry not zero")
	}
	if err := s.Each(func(b trace.Block, e *storeEntry) error {
		t.Errorf("zero entry %#x visited", b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockStoreEach checks that iteration visits every non-zero entry
// exactly once, through pointers into the store, and stops at the first
// error.
func TestBlockStoreEach(t *testing.T) {
	var s BlockStore[int]
	want := map[trace.Block]int{}
	for i := 0; i < 5000; i++ {
		b := trace.Block(i * i % 40_009 * 37) // spread over thousands of pages
		*s.At(b) = i + 1
		want[b] = i + 1
	}
	s.At(storePageSize * 99) // touched but left zero: not visited
	visits := map[trace.Block]int{}
	err := s.Each(func(b trace.Block, e *int) error {
		visits[b]++
		if *e != want[b] {
			t.Errorf("block %#x: got %d, want %d", b, *e, want[b])
		}
		*e = -1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(visits), len(want))
	}
	for b, n := range visits {
		if n != 1 || *s.At(b) != -1 {
			t.Fatalf("block %#x visited %d times, entry %d", b, n, *s.At(b))
		}
	}

	stop := errors.New("stop")
	calls := 0
	err = s.Each(func(trace.Block, *int) error { calls++; return stop })
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("Each returned %v after %d calls, want the first error after 1", err, calls)
	}
}
