package core

import (
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// dragon implements the Dragon snoopy update protocol, the
// best-performing snoopy scheme in the paper's comparison. Instead of
// invalidating stale copies, a write to a shared block broadcasts the
// written word and every sharer updates in place. A "shared" bus line
// (asserted by any snooping cache that holds the address) tells the writer
// whether the broadcast is necessary at all.
//
// With infinite caches a block, once loaded, stays loaded forever: the
// only misses are cold fills, and the interesting events are write hits to
// shared blocks (wh-distrib), which each cost a bus transaction.
type dragon struct {
	ncpu   int
	blocks BlockStore[dragonBlock]

	Checker *Checker
}

type dragonBlock struct {
	holders Set
	// stale reports that memory does not have the latest value; the last
	// writer (owner) is responsible for supplying data on a miss.
	stale bool
	owner uint8
	seen  bool // referenced before (first-reference misses)
}

// NewDragon returns a Dragon engine for ncpu caches.
func NewDragon(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &dragon{ncpu: ncpu}
}

func (p *dragon) Name() string { return "Dragon" }
func (p *dragon) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *dragon) SetChecker(c *Checker) { p.Checker = c }

func (p *dragon) Access(r trace.Ref) event.Result {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: Dragon: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		return event.Result{Type: event.Instr}
	case trace.Read:
		return p.read(r.CPU, r.Block())
	case trace.Write:
		return p.write(r.CPU, r.Block())
	}
	panic(fmt.Sprintf("core: Dragon: invalid reference kind %d", r.Kind))
}

func (p *dragon) fill(bl *dragonBlock, c uint8, b trace.Block, res *event.Result) {
	res.Holders = bl.holders.Count()
	if bl.stale {
		// The last writer supplies the block cache-to-cache.
		res.CacheSupply = true
		p.Checker.FillFromCache(c, bl.owner, b)
	} else {
		p.Checker.FillFromMemory(c, b)
	}
	bl.holders = bl.holders.Add(c)
}

func (p *dragon) read(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		p.Checker.ReadHit(c, b)
		return event.Result{Type: event.RdHit}
	}
	first := !bl.seen
	bl.seen = true
	var res event.Result
	switch {
	case bl.stale:
		res.Type = event.RdMissDirty
	case !bl.holders.Empty():
		res.Type = event.RdMissClean
	case first:
		res.Type = event.RdMissFirst
	default:
		res.Type = event.RdMissMem
	}
	p.fill(bl, c, b, &res)
	return res
}

func (p *dragon) write(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		others := bl.holders.Del(c)
		p.Checker.Write(c, b)
		bl.stale = true
		bl.owner = c
		if others.Empty() {
			return event.Result{Type: event.WrHitLocal}
		}
		// Shared line asserted: broadcast the word, sharers update.
		p.Checker.UpdateSharers(b)
		return event.Result{
			Type:      event.WrHitShared,
			Holders:   others.Count(),
			Broadcast: true,
			Update:    true,
		}
	}
	// Write miss: fetch the block, then behave like a write hit.
	first := !bl.seen
	bl.seen = true
	var res event.Result
	switch {
	case bl.stale:
		res.Type = event.WrMissDirty
	case !bl.holders.Empty():
		res.Type = event.WrMissClean
	case first:
		res.Type = event.WrMissFirst
	default:
		res.Type = event.WrMissMem
	}
	p.fill(bl, c, b, &res)
	p.Checker.Write(c, b)
	bl.stale = true
	bl.owner = c
	if res.Holders > 0 {
		res.Update = true
		res.Broadcast = true
		p.Checker.UpdateSharers(b)
	}
	return res
}

func (p *dragon) CheckInvariants() error {
	if err := p.blocks.Each(func(b trace.Block, bl *dragonBlock) error {
		if bl.stale && !bl.holders.Has(bl.owner) {
			return fmt.Errorf("Dragon: block %#x stale but owner %d is not a holder", b, bl.owner)
		}
		return nil
	}); err != nil {
		return err
	}
	return p.Checker.Err()
}
