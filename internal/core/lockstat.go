package core

import "sync/atomic"

// Store-lock accounting for the lock-free compute-phase contract: the
// engine's round compute phase must read only frozen snapshots, never live
// stores. Every Store lock acquisition (reads, writes and bulk seeding)
// ticks a counter when profiling is armed, so a test can assert a
// code path takes zero store locks. When disarmed — always, outside such a
// test — the tick is a single relaxed atomic load and a predicted-not-taken
// branch, cheap enough to leave in production paths.
var (
	storeLockCounting atomic.Bool
	storeLockCount    atomic.Int64
)

// storeLockTick is called immediately before every Store mutex acquisition.
func storeLockTick() {
	if storeLockCounting.Load() {
		storeLockCount.Add(1)
	}
}

// CountStoreLocks runs fn and reports how many Store lock acquisitions
// (read or write locks, across all stores) happened while it ran. Profiling is process-global and not reentrant: concurrent
// store use outside fn is counted too, so callers must quiesce unrelated
// store traffic first. Intended for tests pinning lock-free phases.
func CountStoreLocks(fn func()) int64 {
	storeLockCount.Store(0)
	storeLockCounting.Store(true)
	defer storeLockCounting.Store(false)
	fn()
	return storeLockCount.Load()
}
