package core

import "sync"

// ArenaPool recycles the large backing arenas of frozen-epoch snapshots —
// TrustView record arenas, offsets and row stamps, EdgeMemo hop tables — across
// captures. A repeated sweep at 10k nodes otherwise allocates a fresh
// ~23 MB arena per epoch (10x that at 100k); with a pool, a population of
// fixed size reaches steady state after the first capture and every
// subsequent epoch reuses the same memory.
//
// The pool is capacity-keyed: Get hands out the smallest retained slice
// whose capacity covers the request, so one pool can serve epochs of mixed
// sizes without unbounded growth (each kind keeps at most a small shelf of
// released slices; when the shelf is full, the smallest slice is evicted in
// favor of a larger release). A nil *ArenaPool is valid and degrades to
// plain allocation, which keeps unpooled call sites (tests, one-shot
// captures) free of conditionals.
//
// All methods are safe for concurrent use. Ownership is strict: a slice
// obtained from a Get is owned by the caller until it is released exactly
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
	if len(s.items) < arenaShelfSize {
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

// GetOffsets returns an int32 slice of length n, reusing a released arena
// when one is large enough. Contents are unspecified; the capture passes
// overwrite every element.
func (p *ArenaPool) GetOffsets(n int) []int32 {
	if p != nil {
		p.mu.Lock()
		s := p.offs.get(n)
		p.mu.Unlock()
		if s != nil {
			return s
		}
	}
	return make([]int32, n)
}

// GetRecords returns a CompactRecord slice of length n, reusing a released
// arena when one is large enough. Contents are unspecified; captures
// overwrite every element (a capture panics if a span stays short).
func (p *ArenaPool) GetRecords(n int) []CompactRecord {
	if p != nil {
		p.mu.Lock()
		s := p.recs.get(n)
		p.mu.Unlock()
		if s != nil {
			return s
		}
	}
	return make([]CompactRecord, n)
}

// GetTable returns a float64 slice of length n for an EdgeMemo hop table,
// reusing a released one when large enough. Contents are unspecified; the
// memo pre-pass overwrites every element.
func (p *ArenaPool) GetTable(n int) []float64 {
	if p != nil {
		p.mu.Lock()
		s := p.tables.get(n)
		p.mu.Unlock()
		if s != nil {
			return s
		}
	}
	return make([]float64, n)
}

// getStamps returns a uint64 slice of length n for a view's per-row store
// stamps, reusing a released one when large enough. Contents are
// unspecified; the capture's counting pass overwrites every element.
func (p *ArenaPool) getStamps(n int) []uint64 {
	if p != nil {
		p.mu.Lock()
		s := p.stamps.get(n)
		p.mu.Unlock()
		if s != nil {
			return s
		}
	}
	return make([]uint64, n)
}

// putStamps releases a row-stamp array back to the pool.
func (p *ArenaPool) putStamps(s []uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stamps.put(s)
	p.mu.Unlock()
}

// putOffsets releases an offsets arena back to the pool.
func (p *ArenaPool) putOffsets(s []int32) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.offs.put(s)
	p.mu.Unlock()
}

// putRecords releases a record arena back to the pool.
func (p *ArenaPool) putRecords(s []CompactRecord) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.recs.put(s)
	p.mu.Unlock()
}

// putTable releases a hop table back to the pool.
func (p *ArenaPool) putTable(s []float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.tables.put(s)
	p.mu.Unlock()
}
