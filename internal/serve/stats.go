package serve

import (
	"math/bits"
	"sync/atomic"
)

// latencyHist is a lock-free exponential-bucket latency histogram: bucket i
// counts observations whose nanosecond value has bit length i (i.e. values
// in [2^(i-1), 2^i)). Powers of two double per bucket, which resolves p50
// and p99 to within a factor of two across the ns-to-seconds range — enough
// for the serve workload counters without any per-query allocation or lock.
type latencyHist struct {
	buckets [64]atomic.Uint64
	count   atomic.Uint64
}

// observe records one latency sample.
func (h *latencyHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
}

// quantile returns an upper bound of the q-quantile (q in [0, 1]) of the
// observed samples, or 0 when the histogram is empty. The bound is the top
// of the bucket holding the q-th sample, so it overestimates by at most 2x.
func (h *latencyHist) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			return int64(1) << i
		}
	}
	return int64(1) << 62
}

// Stats is a point-in-time snapshot of an engine's counters.
type Stats struct {
	// Ingested counts events accepted by IngestCtx; Applied counts events the
	// writer has applied to the stores (and journaled). Applied trails
	// Ingested by at most the queue depth.
	Ingested uint64 `json:"ingested"`
	Applied  uint64 `json:"applied"`
	// Queries counts served Trust calls; Epochs counts published epochs
	// (the initial capture is epoch 0).
	Queries uint64 `json:"queries"`
	Epochs  uint64 `json:"epochs"`
	// QueryP50Ns and QueryP99Ns bound the query latency quantiles
	// (exponential buckets: within 2x).
	QueryP50Ns int64 `json:"query_p50_ns"`
	QueryP99Ns int64 `json:"query_p99_ns"`
	// QueueDepth is the instantaneous ingest-queue occupancy; ShedTotal
	// counts events IngestCtx refused with ErrOverloaded because the queue
	// stayed full past the caller's deadline.
	QueueDepth int    `json:"queue_depth"`
	ShedTotal  uint64 `json:"shed_total"`
	// FsyncP99Ns bounds the journal fsync latency (group commits plus epoch
	// and always-mode syncs; exponential buckets: within 2x).
	FsyncP99Ns int64 `json:"fsync_p99_ns"`
	// RecoveredEvents is how many journaled events Recover re-applied when
	// this engine resumed from a crashed journal (0 for a fresh engine).
	RecoveredEvents uint64 `json:"recovered_events"`
	// EpochStalenessMs is the wall-clock age of the served epoch. It grows
	// without bound in degraded mode, where the engine keeps answering from
	// the last epoch the journal durably recorded.
	EpochStalenessMs int64 `json:"epoch_staleness_ms"`
	// Degraded reports that a journal write or fsync failed: ingest is
	// refused with ErrDegraded, queries still answer from the last good
	// epoch, and the process should be restarted with -resume.
	Degraded bool `json:"degraded"`
	// RepublishP50Ns and RepublishP99Ns bound the epoch republish latency:
	// capture, memo build and the epoch line's sync, per published epoch
	// (exponential buckets: within 2x).
	RepublishP50Ns int64 `json:"republish_p50_ns"`
	RepublishP99Ns int64 `json:"republish_p99_ns"`
	// RowsRecaptured is how many store rows the last published epoch read
	// from the stores; the rest were copied from the epoch before it. The
	// first epoch reads every row.
	RowsRecaptured int64 `json:"epoch_rows_recaptured"`
}
