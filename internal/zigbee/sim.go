// Package zigbee is a discrete-event simulator of the paper's experimental
// IoT network: CC2530-class node devices running a Z-Stack-like profile
// (coordinator-formed PAN, association, acknowledged MAC frames with
// retries, APS fragmentation, report collection), with radio active-time
// and energy accounting and optical sensing driven by the light level.
//
// It simulates airtime, not contents: a frame carries only its endpoints
// and its payload size, which set how long it is on air and whether it can
// be lost. Device addresses are dense from the coordinator's 0x0000, so an
// address indexes the network's device list.
//
// The paper's testbed is physical hardware (TI Z-Stack 2.5.0 on CC2530,
// 2.4 GHz, coordinator + CP2102 host link). This simulator substitutes for
// it: the experiments of Figs. 8, 14, and 16 measure protocol-level and
// timing-ratio quantities (honest-selection percentages, active time with
// and without the trust model, net profit across light phases), which depend
// on which frames fly, how long each is on air and whether it is lost, not
// on RF silicon.
package zigbee

import (
	"container/heap"
	"fmt"
)

// Ms is simulated time in milliseconds.
type Ms = float64

// event is one scheduled callback.
type event struct {
	at  Ms
	seq uint64 // tie-breaker to keep simultaneous events FIFO
	run func()
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator is a deterministic discrete-event executor.
type Simulator struct {
	now    Ms
	seq    uint64
	events eventHeap
	// Processed counts executed events, for tests and runaway guards.
	Processed uint64
	// MaxEvents aborts Run with a panic beyond this many events
	// (a runaway-feedback guard; 0 means no limit).
	MaxEvents uint64
}

// newSimulator returns an empty simulator at time 0.
func newSimulator() *Simulator {
	return &Simulator{MaxEvents: 50_000_000}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Ms { return s.now }

// Schedule runs fn after delay milliseconds of simulated time. Negative
// delays are treated as zero.
func (s *Simulator) Schedule(delay Ms, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, &event{at: s.now + delay, seq: s.seq, run: fn})
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		if e.at > s.now {
			s.now = e.at
		}
		s.Processed++
		if s.MaxEvents > 0 && s.Processed > s.MaxEvents {
			panic(fmt.Sprintf("zigbee: event budget exceeded (%d events) — runaway feedback loop?", s.MaxEvents))
		}
		e.run()
	}
}
