package core

import "sync"

// ArenaPool recycles the large backing arenas of frozen-epoch snapshots —
// TrustView record arenas, offsets and row stamps, EdgeMemo hop tables — across
// captures. A repeated sweep at 10k nodes otherwise allocates a fresh
// ~23 MB arena per epoch (10x that at 100k); with a pool, a population of
// fixed size reaches steady state after the first capture and every
// subsequent epoch reuses the same memory.
//
// The pool is capacity-keyed: a take hands out the smallest retained slice
// whose capacity covers the request, so one pool can serve epochs of mixed
// sizes without unbounded growth (each kind keeps a bounded shelf of
// released slices; when the shelf is full, the smallest slice is evicted in
// favor of a larger release). A nil *ArenaPool is valid and degrades to
// plain allocation, which keeps unpooled call sites (tests, one-shot
// captures) free of conditionals.
//
// All methods are safe for concurrent use. Ownership is strict: a slice
// obtained from a take is owned by the caller until it is released exactly
// once, after which the caller must not touch it again (the next capture
// will overwrite it). TrustView.Release and EdgeMemo.Release enforce this
// for the epoch path.
type ArenaPool struct {
	mu     sync.Mutex
	offs   shelf[int32]
	recs   shelf[CompactRecord]
	tables shelf[float64]
	stamps shelf[uint64]
}

// arenaShelfSize bounds how many released slices of each kind a pool
// retains. Epoch workloads cycle at most a couple of sizes, so a small
// shelf captures all reuse while bounding retained memory.
const arenaShelfSize = 8

// tableShelfSize bounds the hop-table shelf instead. An EdgeMemo holds one
// table per (model, task type) or (model, characteristic), all as long as
// the view's edge list, and releases them together: a sweep over every
// registered model hands back dozens (35 in the 10k-node benchmark sweep).
// A shelf of eight kept eight of them, so every epoch allocated the rest
// again, and the live heap of a sweep loop swung by their size with the
// timing of the collector.
const tableShelfSize = 64

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// shelf is one bounded free list of released slices of a single kind.
type shelf[E any] struct {
	items [][]E
}

// get removes and returns the smallest retained slice with capacity >= n,
// resliced to length n, or nil when none fits.
func (s *shelf[E]) get(n int) []E {
	best := -1
	for i, it := range s.items {
		if cap(it) < n {
			continue
		}
		if best < 0 || cap(it) < cap(s.items[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	it := s.items[best]
	last := len(s.items) - 1
	s.items[best] = s.items[last]
	s.items[last] = nil
	s.items = s.items[:last]
	return it[:n]
}

// put retains a released slice, evicting the smallest retained one when the
// shelf is full and the newcomer is larger.
func (s *shelf[E]) put(it []E) {
	if cap(it) == 0 {
		return
	}
	limit := arenaShelfSize
	if _, tables := any(s).(*shelf[float64]); tables {
		limit = tableShelfSize
	}
	if len(s.items) < limit {
		s.items = append(s.items, it)
		return
	}
	small := 0
	for i := 1; i < len(s.items); i++ {
		if cap(s.items[i]) < cap(s.items[small]) {
			small = i
		}
	}
	if cap(s.items[small]) < cap(it) {
		s.items[small] = it
	}
}

// take returns a slice of length n from p's shelf for element type E,
// reusing a released arena when one is large enough; a nil pool always
// allocates. Contents are unspecified: every caller overwrites each element
// (a capture panics if a record span stays short).
//
// Record arenas grow with every epoch that adds records, so a pooled record
// arena is allocated with n/16 spare capacity, and a miss drops the shelved
// record arenas: each is too small for this capture and, as records
// accumulate, for the captures after it.
func take[E any](p *ArenaPool, n int) []E {
	spare := 0
	if p != nil {
		p.mu.Lock()
		sh := shelfOf[E](p)
		s := sh.get(n)
		if _, recs := any(sh).(*shelf[CompactRecord]); recs && s == nil {
			clear(sh.items)
			sh.items = sh.items[:0]
			spare = n / 16
		}
		p.mu.Unlock()
		if s != nil {
			return s
		}
	}
	return make([]E, n, n+spare)
}

// give releases s back to p's shelf for its element type; a nil pool drops
// it.
func give[E any](p *ArenaPool, s []E) {
	if p == nil {
		return
	}
	p.mu.Lock()
	shelfOf[E](p).put(s)
	p.mu.Unlock()
}

// shelfOf returns p's shelf for element type E: offsets, records, hop
// tables or row stamps.
func shelfOf[E any](p *ArenaPool) *shelf[E] {
	var s any
	switch any((*E)(nil)).(type) {
	case *int32:
		s = &p.offs
	case *CompactRecord:
		s = &p.recs
	case *float64:
		s = &p.tables
	case *uint64:
		s = &p.stamps
	}
	return s.(*shelf[E])
}
