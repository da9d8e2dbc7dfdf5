// Package par runs index-parallel loops: the one fan-out behind every
// parallel pass of the trust engine and the simulator.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn over the indices [0, n) on up to workers goroutines and
// returns once every call has returned. Each call receives a contiguous
// block [lo, hi) and the index of the goroutine running it, worker in
// [0, min(workers, n)), so fn can keep per-worker buffers without locking;
// a goroutine calls fn once per block it claims. Workers claim blocks of
// about n/(64·workers) indices from one shared counter, which balances
// skewed per-index costs. With workers <= 1 For makes the single call
// fn(0, 0, n) on the caller's goroutine. n <= 0 makes no call.
//
// Which worker runs which block depends on the schedule. Callers keep
// results independent of it by one rule: fn's output depends only on the
// indices it is handed — it writes per-index state, or per-worker state
// whose combination does not depend on the blocks each worker took.
func For(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	workers = min(workers, n)
	block := max(n/(64*workers), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(block)))
				lo := hi - block
				if lo >= n {
					return
				}
				fn(w, lo, min(hi, n))
			}
		}()
	}
	wg.Wait()
}
