package sim

import (
	"sync"
	"sync/atomic"
	"testing"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/task"
)

// TestEpochHandleLifecycle walks the publish → acquire → swap → retire
// cycle: readers always see the epoch that was current at Acquire time,
// and a reader that straddles a swap keeps its snapshot.
func TestEpochHandleLifecycle(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(17))
	var h EpochHandle
	if h.Acquire() != nil {
		t.Fatal("empty handle claims a current epoch")
	}
	v1 := p.RoundView(1, nil)
	h.Publish(v1)
	if h.cur.Load() == nil {
		t.Fatal("published epoch not current")
	}
	ref := h.Acquire()
	if ref == nil || ref.View() != v1 {
		t.Fatal("acquire did not hand out the published view")
	}
	// Swap to a fresh epoch: the outstanding reader keeps v1 alive.
	v2 := p.RoundView(1, nil)
	h.Publish(v2)
	if ref.View() != v1 {
		t.Fatal("outstanding reader lost its snapshot across a swap")
	}
	ref2 := h.Acquire()
	if ref2.View() != v2 {
		t.Fatal("new reader did not get the new epoch")
	}
	ref.Release()
	ref2.Release()
	h.Retire()
	if h.Acquire() != nil {
		t.Fatal("retired handle still serves an epoch")
	}
	h.Retire() // idempotent on an empty handle
}

// TestEpochHandleDoubleReleasePanics: releasing one acquired reference
// twice is a bug that could free arenas under a live reader, so it must
// panic instead of silently double-decrementing.
func TestEpochHandleDoubleReleasePanics(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(18))
	var h EpochHandle
	h.Publish(p.RoundView(1, nil))
	ref := h.Acquire()
	ref.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
		h.Retire()
	}()
	ref.Release()
}

// TestEpochViewAfterReleasePanics: a released reference must not hand out
// its view — the arenas may already be recycled into a newer capture, so a
// silent return would serve torn data. View (and Attachment) must panic the
// way a double Release does.
func TestEpochViewAfterReleasePanics(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(19))
	var h EpochHandle
	h.Publish(p.RoundView(1, nil))
	defer h.Retire()
	ref := h.Acquire()
	if ref.View() == nil {
		t.Fatal("live reference has no view")
	}
	ref.Release()
	for name, use := range map[string]func(){
		"View":       func() { ref.View() },
		"Attachment": func() { ref.Attachment() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released epoch reference did not panic", name)
				}
			}()
			use()
		}()
	}
}

// epochProbe is a test EpochAttachment counting its releases.
type epochProbe struct{ released atomic.Int32 }

func (a *epochProbe) ReleaseEpoch() { a.released.Add(1) }

// TestEpochAttachmentLifecycle: a payload published with PublishWith stays
// readable through every outstanding reference and is released exactly once,
// when the last reference goes — the contract a serving layer's per-epoch
// memo tables rely on.
func TestEpochAttachmentLifecycle(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(20))
	var h EpochHandle
	a1 := &epochProbe{}
	h.PublishWith(p.RoundView(1, nil), a1)
	ref := h.Acquire()
	if ref.Attachment() != a1 {
		t.Fatal("acquire did not hand out the published attachment")
	}
	// Swap: the straddling reader keeps the old payload alive.
	a2 := &epochProbe{}
	h.PublishWith(p.RoundView(1, nil), a2)
	if ref.Attachment() != a1 {
		t.Fatal("straddling reader lost its attachment across a swap")
	}
	if n := a1.released.Load(); n != 0 {
		t.Fatalf("attachment released %d times with a reader outstanding", n)
	}
	ref.Release()
	if n := a1.released.Load(); n != 1 {
		t.Fatalf("old attachment released %d times after last reference, want 1", n)
	}
	h.Retire()
	if n := a2.released.Load(); n != 1 {
		t.Fatalf("current attachment released %d times after retire, want 1", n)
	}
}

// TestEpochHandleConcurrentSoak hammers the handle the way a serving layer
// does: reader goroutines acquire/read/release in a loop while the writer
// keeps publishing fresh pooled captures through the same handle. Under
// -race this covers the acquire-vs-swap and release-vs-retire windows; the
// per-epoch attachment asserts every epoch is released exactly once.
func TestEpochHandleConcurrentSoak(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(21))
	pool := core.NewArenaPool()
	var h EpochHandle

	const (
		readers   = 4
		publishes = 60
	)
	probes := make([]*epochProbe, 0, publishes)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ref := h.Acquire()
				if ref == nil {
					continue
				}
				view := ref.View()
				// Touch the snapshot: a recycled arena under our feet would
				// trip the race detector here.
				for e := int32(0); e < int32(view.NumEdges()); e += 7 {
					_ = view.EdgeRecords(e)
					_ = view.Usage(e)
				}
				if ref.Attachment() == nil {
					t.Error("live epoch lost its attachment")
					ref.Release()
					return
				}
				ref.Release()
			}
		}()
	}
	for i := 0; i < publishes; i++ {
		probe := &epochProbe{}
		probes = append(probes, probe)
		h.PublishWith(p.RoundView(2, pool), probe)
	}
	stop.Store(true)
	wg.Wait()
	h.Retire()
	for i, probe := range probes {
		if n := probe.released.Load(); n != 1 {
			t.Fatalf("epoch %d released %d times, want exactly 1", i, n)
		}
	}
}

// TestEpochHandleChurnKeepsViewAlive pins the live-read window of identity
// churn closed: a reader acquires an epoch, whitewashing churn then makes
// every peer Forget an attacker mid-flight (Population.Forget rewriting
// the stores while rounds keep swapping epochs through the same handle),
// and the outstanding view must keep serving the pre-churn records — no
// dangling arenas, no leak-through. After the reader releases, a fresh
// pooled capture must match the live post-churn stores exactly (the
// TestArenaPoolNoStaleRecords property at the round-view level).
func TestEpochHandleChurnKeepsViewAlive(t *testing.T) {
	p := attackPopulation(t, 11, AttackConfig{Model: adversary.Whitewashing{RejoinEvery: 3}, Attackers: 20}, 2)
	eng := NewEngine(p, "churn-epoch")
	tk := task.Uniform(1, task.CharCompute)
	var c MutualityCounters
	// Rounds 0–1 accumulate records about the attackers; churn first fires
	// after round 2, which has not run yet.
	for round := 0; round < 2; round++ {
		eng.MutualityRound(round, tk, &c)
	}
	// Find an edge holder→attacker that carries records.
	var holder, attacker core.AgentID
	found := false
	for _, a := range p.Attackers {
		for _, u := range p.Neighbors(a) {
			if p.Agent(u).Store.RecordCount(a) > 0 {
				holder, attacker, found = u, a, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no records about any attacker after two rounds")
	}
	// Acquire an epoch through the engine's own handle — the reader a
	// serving layer would be.
	eng.Rounds.Publish(p.RoundView(2, epochArenas))
	ref := eng.Rounds.Acquire()
	view := ref.View()
	edge, ok := view.EdgeIndex(holder, attacker)
	if !ok {
		t.Fatal("holder→attacker edge missing from view")
	}
	nRecs := len(view.EdgeRecords(edge))
	if nRecs == 0 {
		t.Fatal("captured view lost the holder's records")
	}
	usage := view.Usage(edge)
	// Round 2 runs with our reference outstanding: its own epoch swap drops
	// the publisher ref of our epoch, and its churn pass makes every peer
	// forget the whitewashing attackers.
	eng.MutualityRound(2, tk, &c)
	if got := p.Agent(holder).Store.RecordCount(attacker); got != 0 {
		t.Fatalf("churn did not fire: holder still has %d live records", got)
	}
	if got := len(view.EdgeRecords(edge)); got != nRecs {
		t.Fatalf("outstanding view changed under churn: %d records, had %d", got, nRecs)
	}
	if got := view.Usage(edge); got != usage {
		t.Fatalf("outstanding view usage changed under churn: %+v, had %+v", got, usage)
	}
	ref.Release() // last reference: arenas return to the pool only now
	// A fresh pooled capture (reusing those arenas) must match the live
	// post-churn stores — nothing stale left behind.
	fresh := p.RoundView(2, epochArenas)
	edge2, ok := fresh.EdgeIndex(holder, attacker)
	if !ok {
		t.Fatal("edge missing from fresh view")
	}
	if got := len(fresh.EdgeRecords(edge2)); got != 0 {
		t.Fatalf("fresh capture serves %d stale records about the forgotten attacker", got)
	}
	if got, want := fresh.Usage(edge2), p.Agent(holder).Store.Usage(attacker); got != want {
		t.Fatalf("fresh capture usage %+v, live store says %+v", got, want)
	}
	fresh.Release()
}

// TestMutualityComputePhaseLockFree is the mutex-contention guard of the
// snapshot-round refactor: with the view captured, the entire compute
// phase — candidate scoring, recommendation gathering with forgery,
// reverse evaluation, outcome draws — takes zero store-shard or usage
// locks, for honest and attacked populations alike.
func TestMutualityComputePhaseLockFree(t *testing.T) {
	scenarios := map[string]AttackConfig{
		"honest":   {},
		"attacked": {Model: adversary.BadMouthing{}, Attackers: 15},
	}
	for name, atk := range scenarios {
		t.Run(name, func(t *testing.T) {
			p := attackPopulation(t, 21, atk, 4)
			eng := NewEngine(p, "lockfree")
			tk := task.Uniform(1, task.CharCompute)
			var c MutualityCounters
			eng.MutualityRound(0, tk, &c) // init + some store state
			actx, attacked := eng.attackContext(1)
			view := p.RoundView(4, nil)
			defer view.Release()
			var acts []mutualityAction
			locks := core.CountStoreLocks(func() {
				acts = eng.computeMutualityActs(view, attacked, actx, 1, tk)
			})
			if locks != 0 {
				t.Errorf("compute phase took %d store locks, want 0", locks)
			}
			if len(acts) != len(p.Trustors) {
				t.Fatalf("compute phase returned %d actions for %d trustors", len(acts), len(p.Trustors))
			}
		})
	}
}
