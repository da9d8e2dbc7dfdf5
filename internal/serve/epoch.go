package serve

import (
	"sync/atomic"

	"siot/internal/core"
)

// epoch is one published snapshot: the journal id queries cite, the frozen
// round view, and the memo Required over it. Replay keeps its re-captured
// epochs in the same shape; only the engine's use the refcount.
type epoch struct {
	id   uint64
	view *core.RoundView
	memo *core.EdgeMemo
	// refs is 1 for the publisher while the epoch is current, plus 1 per
	// outstanding acquire.
	refs atomic.Int32
}

// free returns the memo tables and the view's arenas to their pool.
func (ep *epoch) free() {
	ep.memo.Release()
	ep.view.Release()
}

// drop releases one reference, freeing the epoch when the last one goes. A
// drop below zero means a reference was released twice — someone may be
// reading freed arenas — so it panics loudly.
func (ep *epoch) drop() {
	switch n := ep.refs.Add(-1); {
	case n == 0:
		ep.free()
	case n < 0:
		panic("serve: epoch reference released twice")
	}
}

// epochHandle is the engine's RCU-style current-epoch pointer. The life
// cycle is publish → acquire*/release* → retire: the writer publishes each
// new epoch (retiring the previous one), queries acquire the current epoch,
// read it lock-free, and release it. An epoch is freed only when its last
// reference — publisher or reader — goes away, so a query straddling a swap
// reads a consistent (view, memo) pair to the end and never a recycled
// arena. All methods are safe for concurrent use; the zero handle is empty.
type epochHandle struct {
	cur atomic.Pointer[epoch]
}

// publish installs ep as the current epoch and retires the previous one.
// The handle takes ownership of ep.
func (h *epochHandle) publish(ep *epoch) {
	ep.refs.Store(1)
	if old := h.cur.Swap(ep); old != nil {
		old.drop()
	}
}

// retire drops the current epoch, releasing the publisher's reference.
// Outstanding readers keep their snapshot alive until they release; an
// empty handle's acquire returns nil.
func (h *epochHandle) retire() {
	if old := h.cur.Swap(nil); old != nil {
		old.drop()
	}
}

// acquire takes a reference on the current epoch, or returns nil when none
// is published. The caller must release it exactly once; the epoch stays
// valid until then, even across a publish or retire.
func (h *epochHandle) acquire() *epochRef {
	for {
		ep := h.cur.Load()
		if ep == nil {
			return nil
		}
		for {
			n := ep.refs.Load()
			if n <= 0 {
				break // freed between Load and here; re-read the pointer
			}
			if ep.refs.CompareAndSwap(n, n+1) {
				return &epochRef{ep: ep}
			}
		}
	}
}

// epochRef is one acquired reference to a published epoch.
type epochRef struct {
	ep       *epoch
	released atomic.Bool
}

// epoch returns the referenced epoch. A call after release panics: the
// epoch's arenas may already be recycled into a newer capture, so handing
// it out would silently serve torn data.
func (r *epochRef) epoch() *epoch {
	if r.released.Load() {
		panic("serve: read through a released epoch reference")
	}
	return r.ep
}

// release drops the reference. Exactly once; a second call panics.
func (r *epochRef) release() {
	if r.released.Swap(true) {
		panic("serve: epoch reference released twice")
	}
	r.ep.drop()
}
