package sim

import (
	"sync/atomic"

	"siot/internal/core"
)

// EpochHandle makes the frozen-epoch swap explicit: an RCU-style atomic
// pointer to the current round view plus a refcount that ties every
// outstanding reader to the view's arenas in the core.ArenaPool.
//
// The life cycle is Publish → Acquire*/Release* → Retire. Publish installs
// a freshly captured view as the current epoch (retiring any previous one);
// readers Acquire the current epoch, read the immutable view at will, and
// Release when done; Retire drops the publisher's reference once the epoch
// is stale (the merge phase wrote the stores). The view's arenas return to
// the pool only when the last reference — publisher or reader — goes away,
// so a reader that outlives the swap (an experiment probe mid-churn, a
// server request straddling an epoch boundary) keeps a consistent snapshot
// and can never dangle; conversely, a reference released twice panics
// instead of silently freeing arenas a live reader still uses
// (TestEpochHandleDoubleReleasePanics). This is the seam a serving layer
// mounts on: writers swap epochs at their own cadence, readers never block
// and never see a torn view.
//
// All methods are safe for concurrent use. The zero EpochHandle is valid
// and empty.
type EpochHandle struct {
	cur atomic.Pointer[epochRec]
}

// EpochAttachment is optional per-epoch payload published alongside a view
// and released with it: derived read-only state whose lifetime must match
// the view's exactly (a serving layer's per-epoch memo tables, an epoch id).
// ReleaseEpoch runs once, when the last reference — publisher or reader —
// goes away, immediately before the view's arenas return to their pool.
type EpochAttachment interface {
	ReleaseEpoch()
}

// epochRec pairs one published view (and its optional attachment) with its
// reference count: 1 for the publisher while the epoch is current, plus 1
// per outstanding Acquire.
type epochRec struct {
	view   *core.RoundView
	attach EpochAttachment
	refs   atomic.Int32
}

// releaseRec drops one reference, returning the view's arenas to their pool
// when the last one goes. A drop below zero means a reference was released
// twice — someone may be reading freed arenas — so it panics loudly.
func releaseRec(rec *epochRec) {
	switch n := rec.refs.Add(-1); {
	case n == 0:
		if rec.attach != nil {
			rec.attach.ReleaseEpoch()
		}
		rec.view.Release()
	case n < 0:
		panic("sim: epoch reference released twice")
	}
}

// Publish installs view as the current epoch and retires the previous one,
// if any. The handle takes ownership of the view: it is released back to
// its arena pool when the epoch is retired and the last reader is gone.
func (h *EpochHandle) Publish(view *core.RoundView) {
	h.PublishWith(view, nil)
}

// PublishWith is Publish with an attachment riding the epoch: the payload
// stays readable through Epoch.Attachment for exactly as long as the view
// itself, and its ReleaseEpoch runs when the last reference goes away. This
// is how a serving layer keeps per-epoch derived state (memo tables, epoch
// ids) consistent with the snapshot across swaps: one refcount covers both.
func (h *EpochHandle) PublishWith(view *core.RoundView, attach EpochAttachment) {
	rec := &epochRec{view: view, attach: attach}
	rec.refs.Store(1)
	if old := h.cur.Swap(rec); old != nil {
		releaseRec(old)
	}
}

// Retire drops the current epoch, releasing the publisher's reference.
// Outstanding readers keep their snapshot alive until they Release. A
// retired (or never-published) handle is empty: Acquire returns nil.
func (h *EpochHandle) Retire() {
	if old := h.cur.Swap(nil); old != nil {
		releaseRec(old)
	}
}

// Acquire takes a reference on the current epoch, or returns nil when none
// is published. The caller must Release the returned epoch exactly once;
// the view it serves stays valid — arenas pinned, contents frozen — until
// then, even across a Publish/Retire of the handle.
func (h *EpochHandle) Acquire() *Epoch {
	for {
		rec := h.cur.Load()
		if rec == nil {
			return nil
		}
		for {
			n := rec.refs.Load()
			if n <= 0 {
				break // torn down between Load and here; re-read the pointer
			}
			if rec.refs.CompareAndSwap(n, n+1) {
				return &Epoch{rec: rec}
			}
		}
	}
}

// Epoch is one acquired reference to a published round view.
type Epoch struct {
	rec      *epochRec
	released atomic.Bool
}

// View returns the epoch's frozen round view. Valid until Release; a call
// after Release panics — the view's arenas may already be recycled into a
// newer capture, so handing it out would silently serve torn data
// (TestEpochViewAfterReleasePanics).
func (ep *Epoch) View() *core.RoundView {
	if ep.released.Load() {
		panic("sim: View on a released epoch reference")
	}
	return ep.rec.view
}

// Attachment returns the payload published with the epoch via PublishWith
// (nil for plain Publish). Same validity as View: panics after Release.
func (ep *Epoch) Attachment() EpochAttachment {
	if ep.released.Load() {
		panic("sim: Attachment on a released epoch reference")
	}
	return ep.rec.attach
}

// Release drops the reference. Exactly once; a second call panics.
func (ep *Epoch) Release() {
	if ep.released.Swap(true) {
		panic("sim: epoch reference released twice")
	}
	releaseRec(ep.rec)
}
