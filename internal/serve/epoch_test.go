package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"siot/internal/core"
)

// epochMaker captures epochs of a small seeded world with the given id,
// drawing arenas from pool (nil allocates fresh).
func epochMaker(t *testing.T, pool *core.ArenaPool) func(id uint64) *epoch {
	t.Helper()
	w, err := buildWorld(Config{Net: "twitter", Seed: 7, Seeded: true}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	norm := w.pop.Config().Update.Norm
	return func(id uint64) *epoch {
		view := w.pop.RoundView(1, pool)
		return &epoch{id: id, view: view, memo: core.NewEdgeMemoPooled(view.TrustView, norm, 1, pool)}
	}
}

// assertFreed fails unless the epoch's last reference is gone: refs at
// exactly 0, neither outstanding nor released twice.
func assertFreed(t *testing.T, ep *epoch) {
	t.Helper()
	if n := ep.refs.Load(); n != 0 {
		t.Fatalf("epoch %d has refs %d after its last reference went, want 0", ep.id, n)
	}
}

// TestEpochLifecycle walks the publish → acquire → swap → retire cycle:
// readers always see the epoch that was current at acquire time, a reader
// that straddles a swap keeps its snapshot, and each epoch is freed exactly
// when its last reference goes.
func TestEpochLifecycle(t *testing.T) {
	mk := epochMaker(t, nil)
	var h epochHandle
	if h.acquire() != nil {
		t.Fatal("empty handle claims a current epoch")
	}
	e1 := mk(1)
	h.publish(e1)
	ref := h.acquire()
	if ref == nil || ref.epoch() != e1 {
		t.Fatal("acquire did not hand out the published epoch")
	}
	// Swap to a fresh epoch: the outstanding reader keeps e1 alive.
	e2 := mk(2)
	h.publish(e2)
	if ref.epoch() != e1 {
		t.Fatal("outstanding reader lost its snapshot across a swap")
	}
	if n := e1.refs.Load(); n != 1 {
		t.Fatalf("straddled epoch has refs %d with one reader outstanding, want 1", n)
	}
	ref2 := h.acquire()
	if ref2.epoch() != e2 {
		t.Fatal("new reader did not get the new epoch")
	}
	ref.release()
	assertFreed(t, e1)
	ref2.release()
	h.retire()
	assertFreed(t, e2)
	if h.acquire() != nil {
		t.Fatal("retired handle still serves an epoch")
	}
	h.retire() // idempotent on an empty handle
}

// TestEpochDoubleReleasePanics: releasing one acquired reference twice is a
// bug that could free arenas under a live reader, so it must panic instead
// of silently double-decrementing.
func TestEpochDoubleReleasePanics(t *testing.T) {
	var h epochHandle
	ep := epochMaker(t, nil)(1)
	h.publish(ep)
	ref := h.acquire()
	ref.release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
		h.retire()
		assertFreed(t, ep)
	}()
	ref.release()
}

// TestEpochReadAfterReleasePanics: a released reference must not hand out
// its epoch — the arenas may already be recycled into a newer capture, so
// a silent return would serve torn data.
func TestEpochReadAfterReleasePanics(t *testing.T) {
	var h epochHandle
	h.publish(epochMaker(t, nil)(1))
	defer h.retire()
	ref := h.acquire()
	if ref.epoch().view == nil {
		t.Fatal("live reference has no view")
	}
	ref.release()
	defer func() {
		if recover() == nil {
			t.Fatal("read through a released epoch reference did not panic")
		}
	}()
	ref.epoch()
}

// TestEpochConcurrentSoak hammers the handle the way the engine does:
// reader goroutines acquire/read/release in a loop while the writer keeps
// publishing fresh pooled captures. Under -race this covers the
// acquire-vs-swap and release-vs-retire windows; every epoch must end with
// refs at exactly 0.
func TestEpochConcurrentSoak(t *testing.T) {
	mk := epochMaker(t, core.NewArenaPool())
	var h epochHandle

	const (
		readers   = 4
		publishes = 60
	)
	published := make([]*epoch, 0, publishes)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ref := h.acquire()
				if ref == nil {
					continue
				}
				ep := ref.epoch()
				// Touch the snapshot: a recycled arena under our feet would
				// trip the race detector here.
				for e := int32(0); e < int32(ep.view.NumEdges()); e += 7 {
					_ = ep.view.EdgeRecords(e)
					_ = ep.view.Usage(e)
				}
				if ep.memo == nil {
					t.Error("live epoch lost its memo")
				}
				ref.release()
			}
		}()
	}
	for i := 0; i < publishes; i++ {
		ep := mk(uint64(i))
		published = append(published, ep)
		h.publish(ep)
	}
	stop.Store(true)
	wg.Wait()
	h.retire()
	for _, ep := range published {
		assertFreed(t, ep)
	}
}
