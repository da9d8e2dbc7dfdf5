package serve

import (
	"errors"
	"fmt"
	"io"
)

// RecoverFile is the journal backing store Recover needs: sequential reads
// of the existing prefix, truncation of a torn tail, and appends for the
// resumed engine's continuation. *os.File (opened O_RDWR|O_APPEND) and
// faultfs.Image satisfy it; when it also implements Sync() error the
// resumed journal keeps its durability guarantees.
type RecoverFile interface {
	io.Reader
	io.Writer
	Truncate(size int64) error
}

// RecoverStats summarizes a recovery: how much journaled state was
// re-applied and how many torn-tail bytes were truncated away.
type RecoverStats struct {
	Events    uint64 `json:"events"`
	Epochs    uint64 `json:"epochs"`
	Queries   uint64 `json:"queries"`
	TornBytes int64  `json:"torn_bytes"`
}

// Recover rebuilds a serving engine from a crashed journal and keeps the
// journal as its continuation: the world is rebuilt from the header's
// recipe, every event is validated and re-applied in sequence through the
// journal walk Replay runs (queries are counted, not re-verified — Replay
// is the auditor), the event and epoch counters resume where the journal
// left off, and a fresh epoch is captured, journaled under the next id, and
// published before the engine starts serving — so the continued journal
// stays a single contiguous stream that Replay verifies end to end.
//
// The torn-tail rule: exactly one damaged final line (torn by a crash
// mid-write, or failing its CRC) is tolerated — it is truncated away,
// because group-commit ordering means a torn final line was never
// acknowledged. Damage anywhere earlier is a hard error: an acknowledged
// prefix that cannot be read back is data loss, and silently skipping it
// would serve wrong state.
//
// A journal that is empty (or holds only a torn header line) recovers to a
// fresh engine: the tail is truncated and New takes over, writing a new
// header. Recover overrides cfg's world-construction fields with the
// header's; only cfg's operational fields (cadence, queue, batch, workers,
// fsync) apply. cfg.Journal is ignored — f is the journal.
func Recover(f RecoverFile, cfg Config) (*Engine, RecoverStats, error) {
	var stats RecoverStats
	if err := cfg.checkCounts(); err != nil {
		return nil, stats, fmt.Errorf("serve: recover: %w", err)
	}
	cfg = cfg.withDefaults()
	cfg.Journal = f

	s := newJournalScanner(f)
	hcfg, err := replayHeader(s)
	var corrupt *corruptError
	switch {
	case errors.Is(err, io.EOF):
		// Zero-byte journal: fresh start.
		e, nerr := New(cfg)
		return e, stats, nerr
	case errors.As(err, &corrupt) && corrupt.Ln == 1:
		// The header line itself is the torn tail: nothing durable ever
		// made it to disk, so truncate to empty and start fresh.
		if _, err := s.next(); !errors.Is(err, io.EOF) {
			return nil, stats, fmt.Errorf("serve: recover: header %w, but the journal continues past it", corrupt)
		}
		stats.TornBytes = s.Off() - corrupt.Off
		if err := f.Truncate(0); err != nil {
			return nil, stats, fmt.Errorf("serve: recover: truncating torn header: %w", err)
		}
		e, nerr := New(cfg)
		return e, stats, nerr
	case err != nil:
		return nil, stats, fmt.Errorf("serve: recover: %w", err)
	}
	// World recipe comes from the header; scheduling and durability knobs
	// from the caller.
	cfg.Net, cfg.Nodes, cfg.Seed, cfg.Chars = hcfg.Net, hcfg.Nodes, hcfg.Seed, hcfg.Chars
	cfg.Model, cfg.Seeded, cfg.Theta = hcfg.Model, hcfg.Seeded, hcfg.Theta
	w, err := buildWorld(cfg)
	if err != nil {
		return nil, stats, fmt.Errorf("serve: recover: %w", err)
	}

	var nextEpoch uint64
	walked, err := walk(s, w, func(ep *epochLine) error { nextEpoch = ep.ID + 1; return nil }, nil)
	stats.Events, stats.Epochs, stats.Queries = walked.Events, walked.Epochs, walked.Queries
	switch {
	case errors.As(err, &corrupt):
		// Tolerable only as the very last line: probe for a successor.
		if _, err := s.next(); !errors.Is(err, io.EOF) {
			return nil, stats, fmt.Errorf("serve: recover: %w, but the journal continues past it — corruption before the tail is unrecoverable", corrupt)
		}
		stats.TornBytes = s.Off() - corrupt.Off
		if err := f.Truncate(corrupt.Off); err != nil {
			return nil, stats, fmt.Errorf("serve: recover: truncating torn tail: %w", err)
		}
	case err != nil:
		return nil, stats, fmt.Errorf("serve: recover: %w", err)
	}

	// Resume the engine on the journal's seam: counters continue exactly
	// where the prefix left off, and the recovery epoch is journaled (and
	// synced) under the next id before anything is served or ingested.
	e := newEngine(cfg, w)
	e.applied.Store(stats.Events)
	e.ingested.Store(stats.Events)
	e.recovered = stats.Events
	e.epochs.Store(nextEpoch)
	if err := e.start(); err != nil {
		return nil, stats, fmt.Errorf("serve: recover: publishing the recovery epoch: %w", err)
	}
	return e, stats, nil
}
