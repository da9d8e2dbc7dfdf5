package par

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// goroutineID parses the running goroutine's id from its stack header,
// "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestForCoversEveryIndexOnce checks that every index is handed out exactly
// once, in disjoint contiguous blocks, and that every worker index lies in
// [0, min(workers, n)).
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 100003} {
		for _, workers := range []int{-1, 0, 1, 2, 8, 64} {
			seen := make([]int32, n)
			var mu sync.Mutex
			var bad []string
			For(n, workers, func(worker, lo, hi int) {
				if worker < 0 || worker >= max(min(workers, n), 1) {
					mu.Lock()
					bad = append(bad, "worker out of range")
					mu.Unlock()
				}
				if lo < 0 || hi > n || lo >= hi {
					mu.Lock()
					bad = append(bad, "empty or out-of-range block")
					mu.Unlock()
					return
				}
				for i := lo; i < hi; i++ {
					seen[i]++ // blocks are disjoint, so no two calls write one slot
				}
			})
			for _, b := range bad {
				t.Errorf("n=%d workers=%d: %s", n, workers, b)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d handed out %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestForSerial checks that workers <= 1 makes exactly one call, (0, 0, n),
// on the calling goroutine, and that n == 0 makes none at any width.
func TestForSerial(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		for _, n := range []int{1, 7, 1000} {
			var calls [][3]int
			For(n, workers, func(worker, lo, hi int) {
				if id := goroutineID(); id != caller {
					t.Errorf("n=%d workers=%d: fn ran on goroutine %s, want the caller's %s", n, workers, id, caller)
				}
				calls = append(calls, [3]int{worker, lo, hi})
			})
			if len(calls) != 1 || calls[0] != [3]int{0, 0, n} {
				t.Errorf("n=%d workers=%d: calls %v, want one (0, 0, %d)", n, workers, calls, n)
			}
		}
	}
	for _, workers := range []int{-1, 0, 1, 2, 8, 64} {
		For(0, workers, func(_, _, _ int) {
			t.Errorf("workers=%d: call made for n=0", workers)
		})
	}
}

// TestForPerWorkerSums checks that per-worker accumulators, indexed by the
// worker argument, add up to the serial sum.
func TestForPerWorkerSums(t *testing.T) {
	const n = 100003
	want := int64(n) * (n - 1) / 2
	for _, workers := range []int{1, 2, 8, 64} {
		sums := make([]int64, workers)
		For(n, workers, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				sums[worker] += int64(i)
			}
		})
		got := int64(0)
		for _, s := range sums {
			got += s
		}
		if got != want {
			t.Errorf("workers=%d: per-worker sums total %d, want %d", workers, got, want)
		}
	}
}
