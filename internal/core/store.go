package core

import "dirsim/internal/trace"

// Pages hold 256 entries. Larger pages make the last-page cache hit more
// often on big working sets, but every simulation zeroes at least one
// page per address region it touches, which the paper sweep's many short
// simulations feel: on a 2-CPU x86 box, 4096-entry pages slowed the
// sweep's 10k-ref warm-up by about 15% and gained nothing on a 16-CPU
// 4M-ref trace.
const (
	storePageBits = 8
	storePageSize = 1 << storePageBits
	storePageMask = storePageSize - 1
)

// BlockStore is a protocol core's per-block state: the directory entry
// (or, for a snoopy protocol, the union of the caches' tags) of every
// block, in fixed-size pages keyed by the high block bits. The zero value
// of T means "never referenced", so a fresh page needs no initialisation
// and the first-reference bit of the Table 4 taxonomy lives in the entry
// itself. Pages are allocated on first touch and never move, so a pointer
// returned by At stays valid for the store's lifetime; a one-entry cache
// of the last page used makes consecutive same-page lookups a compare
// instead of a map probe.
//
// The zero BlockStore is empty and ready to use.
type BlockStore[T comparable] struct {
	pages   map[uint64]*[storePageSize]T
	last    *[storePageSize]T
	lastKey uint64 // last's page number plus one; 0 while nothing is cached
}

// At returns the entry of block b, allocating its page on first touch.
func (s *BlockStore[T]) At(b trace.Block) *T {
	if key := uint64(b)>>storePageBits + 1; key != s.lastKey {
		s.load(key)
	}
	return &s.last[b&storePageMask]
}

// load makes the page with the given key (page number plus one) the
// cached last page.
func (s *BlockStore[T]) load(key uint64) {
	pg := s.pages[key]
	if pg == nil {
		if s.pages == nil {
			s.pages = map[uint64]*[storePageSize]T{}
		}
		pg = new([storePageSize]T)
		s.pages[key] = pg
	}
	s.last, s.lastKey = pg, key
}

// Each calls fn on every entry that is not the zero value, in no
// particular order, and returns the first error fn returns.
func (s *BlockStore[T]) Each(fn func(b trace.Block, e *T) error) error {
	var zero T
	for key, pg := range s.pages {
		for i := range pg {
			if pg[i] == zero {
				continue
			}
			if err := fn(trace.Block((key-1)<<storePageBits|uint64(i)), &pg[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
