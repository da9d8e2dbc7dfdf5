package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siot/internal/core"
	"siot/internal/faultfs"
)

// crashCfg is the shared recovery-test world: small, seeded, frequent
// epochs so every test crosses several capture boundaries.
func crashCfg(j *faultfs.File) Config {
	cfg := Config{
		Net: "twitter", Seed: 7, Model: core.Conservative, Seeded: true,
		EpochEvery: 8, BatchSize: 4,
	}
	if j != nil {
		cfg.Journal = j
	}
	return cfg
}

// mustIngestN pushes n random events through the engine, failing the test
// on any error, and returns how many were durably acknowledged.
func mustIngestN(t *testing.T, e *Engine, r *rand.Rand, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	return n
}

// TestRecoverTornTail is the torn-tail rule end to end: a journal chopped
// mid-line recovers, keeps serving, accepts new events, and the continued
// journal replays clean — while the same journal chopped mid-line refuses
// strict Replay.
func TestRecoverTornTail(t *testing.T) {
	f := faultfs.NewFile(nil)
	e, err := New(crashCfg(f))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(21, 22))
	acked := mustIngestN(t, e, r, 30)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	whole := f.Bytes()

	// Chop the final line at several interior byte positions.
	lastNL := bytes.LastIndexByte(whole[:len(whole)-1], '\n')
	for _, cut := range []int{lastNL + 1, lastNL + 2, len(whole) - 2} {
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			torn := append([]byte(nil), whole[:cut]...)
			if _, err := Replay(bytes.NewReader(torn)); err == nil && cut > lastNL+1 {
				t.Fatal("strict replay accepted a torn journal")
			}
			img := faultfs.NewFile(torn)
			e2, rstats, err := Recover(img, crashCfg(img))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if cut > lastNL+1 && rstats.TornBytes == 0 {
				t.Fatalf("recover reported no torn bytes for a cut at %d", cut)
			}
			if int(rstats.Events) > acked {
				t.Fatalf("recover found %d events, engine only applied %d", rstats.Events, acked)
			}
			if got := e2.Stats().RecoveredEvents; got != rstats.Events {
				t.Fatalf("stats recovered_events = %d, recover stats = %d", got, rstats.Events)
			}
			// The resumed engine serves and ingests, and its continuation
			// replays bit-for-bit from the very first header.
			if _, err := e2.Trust(0, 5, 0); err != nil {
				t.Fatalf("trust after recover: %v", err)
			}
			mustIngestN(t, e2, r, 10)
			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}
			rs, err := Replay(bytes.NewReader(img.Bytes()))
			if err != nil {
				t.Fatalf("replay of recovered+continued journal: %v", err)
			}
			if rs.Events != rstats.Events+10 {
				t.Fatalf("continued journal has %d events, want %d", rs.Events, rstats.Events+10)
			}
		})
	}
}

// TestRecoverRejectsMidJournalCorruption pins the hard-error half of the
// torn-tail rule: damage that is NOT the final line — an acknowledged
// prefix that cannot be read back — must refuse recovery, not silently
// skip.
func TestRecoverRejectsMidJournalCorruption(t *testing.T) {
	f := faultfs.NewFile(nil)
	e, err := New(crashCfg(f))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(31, 32))
	mustIngestN(t, e, r, 20)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	raw := f.Bytes()

	// Corrupt a middle line (flip one payload byte; its CRC now fails).
	corrupted := bytes.SplitAfter(append([]byte(nil), raw...), []byte("\n"))
	mid := len(corrupted) / 2
	corrupted[mid][len(corrupted[mid])/2] ^= 0x04
	img := faultfs.NewFile(bytes.Join(corrupted, nil))
	if _, _, err := Recover(img, crashCfg(img)); err == nil {
		t.Fatal("recover accepted mid-journal corruption")
	} else if !strings.Contains(err.Error(), "continues past it") {
		t.Fatalf("error %v does not name the not-at-tail rule", err)
	}

	// A sequence gap (a deleted event line) is equally fatal even though
	// every surviving line is intact.
	lines := bytes.SplitAfter(append([]byte(nil), raw...), []byte("\n"))
	i := 0
	for ; i < len(lines); i++ {
		if bytes.Contains(lines[i], []byte(`"kind":"event"`)) {
			break
		}
	}
	if i == len(lines) {
		t.Fatal("journal holds no event line to delete")
	}
	gapped := bytes.Join(append(lines[:i:i], lines[i+1:]...), nil)
	img2 := faultfs.NewFile(gapped)
	if _, _, err := Recover(img2, crashCfg(img2)); err == nil {
		t.Fatal("recover accepted a journal with a sequence gap")
	}
}

// TestRecoverRejectsNegativeConfig: a negative operational count is
// rejected before Recover reads the journal, so neither a torn tail nor an
// empty journal is truncated or appended to.
func TestRecoverRejectsNegativeConfig(t *testing.T) {
	f := faultfs.NewFile(nil)
	e, err := New(crashCfg(f))
	if err != nil {
		t.Fatal(err)
	}
	mustIngestN(t, e, rand.New(rand.NewPCG(51, 52)), 10)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	torn := f.Bytes()
	torn = torn[:len(torn)-7]
	for name, contents := range map[string][]byte{"empty": nil, "torn tail": torn} {
		img := faultfs.NewFile(bytes.Clone(contents))
		cfg := crashCfg(img)
		cfg.QueueSize = -1
		if _, _, err := Recover(img, cfg); err == nil || !strings.Contains(err.Error(), "QueueSize") {
			t.Fatalf("%s: recover error %v, want one naming QueueSize", name, err)
		}
		if !bytes.Equal(img.Bytes(), contents) {
			t.Fatalf("%s: the rejected recovery changed the journal", name)
		}
	}
}

// TestRecoverEmptyAndTornHeader pins the fresh-start edge: a zero-byte
// journal and a journal holding only a torn header both recover to a brand
// new engine that writes a clean journal.
func TestRecoverEmptyAndTornHeader(t *testing.T) {
	for _, tc := range []struct {
		name     string
		contents []byte
	}{
		{"empty", nil},
		{"torn header", []byte(`{"crc":"12345678","line":{"kind":"head`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := faultfs.NewFile(tc.contents)
			e, rstats, err := Recover(img, crashCfg(img))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rstats.Events != 0 {
				t.Fatalf("fresh start recovered %d events", rstats.Events)
			}
			r := rand.New(rand.NewPCG(41, 42))
			mustIngestN(t, e, r, 5)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if rs, err := Replay(bytes.NewReader(img.Bytes())); err != nil {
				t.Fatalf("replay: %v", err)
			} else if rs.Events != 5 {
				t.Fatalf("replay found %d events, want 5", rs.Events)
			}
		})
	}
}

// TestKillLoopRecovery is the crash-safety acceptance test: a server is
// "SIGKILLed" (its unsynced journal tail discarded at fault-injected byte
// offsets) more than 20 times mid-ingest; every surviving prefix must
// recover, keep serving, and extend the journal so that the final file
// replays bit-for-bit — and across all crashes, zero durably acknowledged
// events are lost. Runs under -race in CI.
func TestKillLoopRecovery(t *testing.T) {
	const kills = 24
	r := rand.New(rand.NewPCG(77, 78))
	var (
		surviving []byte // crash image carried across iterations
		ackedEver uint64 // durably acknowledged events across all sessions
	)
	for i := 0; i < kills; i++ {
		f := faultfs.NewFile(surviving)
		e, rstats, err := Recover(f, crashCfg(f))
		if err != nil {
			t.Fatalf("kill %d: recover: %v", i, err)
		}
		if rstats.Events < ackedEver {
			t.Fatalf("kill %d: recovery lost acknowledged events: recovered %d, acknowledged %d", i, rstats.Events, ackedEver)
		}
		// Unacknowledged events that happened to survive the crash are
		// fine (they were journaled, just never promised); they now count
		// as the resumed baseline.
		ackedEver = rstats.Events

		// The resumed engine must serve immediately.
		if _, err := e.Trust(0, 5, 0); err != nil {
			t.Fatalf("kill %d: trust after recover: %v", i, err)
		}

		// Ingest a burst; each nil return is a durability promise.
		burst := 3 + r.IntN(8)
		for b := 0; b < burst; b++ {
			if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
				t.Fatalf("kill %d: ingest: %v", i, err)
			}
			ackedEver++
		}

		// SIGKILL at a fault-injected offset: keep the durable prefix plus
		// an arbitrary slice of the unsynced tail — 0 bytes, a few torn
		// bytes, or everything, sweeping the space of real crash states.
		unsynced := int(f.Size() - f.DurableSize())
		var extra int
		switch i % 4 {
		case 0:
			extra = 0
		case 1:
			extra = min(1+r.IntN(40), unsynced)
		case 2:
			extra = unsynced / 2
		default:
			extra = unsynced
		}
		surviving = f.Crash(extra)
		// The engine object is abandoned without Close — that is the
		// SIGKILL. Its goroutine dies with the test process scope; release
		// the epoch so -race's leak surface stays quiet.
		e.Close()
	}

	// Final session closes cleanly; the whole journal — every recovery
	// seam included — must replay bit-for-bit.
	f := faultfs.NewFile(surviving)
	e, rstats, err := Recover(f, crashCfg(f))
	if err != nil {
		t.Fatalf("final recover: %v", err)
	}
	if rstats.Events < ackedEver {
		t.Fatalf("final recovery lost acknowledged events: recovered %d, acknowledged %d", rstats.Events, ackedEver)
	}
	mustIngestN(t, e, r, 5)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := Replay(bytes.NewReader(f.Bytes()))
	if err != nil {
		t.Fatalf("final replay: %v", err)
	}
	if rs.Events != rstats.Events+5 {
		t.Fatalf("final journal has %d events, want %d", rs.Events, rstats.Events+5)
	}
}

// TestIngestAckIsDurable pins the drain contract satellite: every IngestCtx
// that returns nil — even one racing Close — corresponds to an event in
// the journal. Events refused with ErrClosed must not be counted on, but
// acknowledged ones can never be dropped.
func TestIngestAckIsDurable(t *testing.T) {
	f := faultfs.NewFile(nil)
	cfg := crashCfg(f)
	cfg.QueueSize = 4 // small queue: the Close race window stays hot
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var (
		wg    sync.WaitGroup
		acked atomic.Uint64
	)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 55))
			<-start
			for {
				err := e.IngestCtx(context.Background(), randomEvent(e, r))
				if err == nil {
					acked.Add(1)
					continue
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				t.Errorf("worker %d: unexpected ingest error: %v", w, err)
				return
			}
		}(w)
	}
	close(start)
	time.Sleep(10 * time.Millisecond) // let the race build a queue
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	rs, err := Replay(bytes.NewReader(f.Bytes()))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rs.Events < acked.Load() {
		t.Fatalf("journal holds %d events but %d were acknowledged", rs.Events, acked.Load())
	}
}

// TestDegradedMode pins graceful degradation: when fsync starts failing,
// in-flight ingests are refused with ErrDegraded, later ingests fail fast,
// queries keep answering from the last good epoch, the epoch counter
// freezes, and staleness grows.
func TestDegradedMode(t *testing.T) {
	f := faultfs.NewFile(nil)
	cfg := crashCfg(f)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(61, 62))
	mustIngestN(t, e, r, 10)
	goodEpochs := e.Stats().Epochs

	f.FailSyncAt(f.Syncs()+1, nil) // every sync from here on fails
	var degradedErr error
	for i := 0; i < 50; i++ {
		if degradedErr = e.IngestCtx(context.Background(), randomEvent(e, r)); degradedErr != nil {
			break
		}
	}
	if !errors.Is(degradedErr, ErrDegraded) {
		t.Fatalf("ingest against a failing disk returned %v, want ErrDegraded", degradedErr)
	}
	// Fail-fast path: refused before touching the queue.
	if err := e.IngestCtx(context.Background(), randomEvent(e, r)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingest in degraded mode returned %v, want ErrDegraded", err)
	}
	st := e.Stats()
	if !st.Degraded {
		t.Fatal("stats do not report degraded")
	}
	if st.Epochs != goodEpochs {
		// One epoch may have published between the last good ingest and
		// the sync failure, but none after degradation; re-reading must
		// show a frozen counter.
		goodEpochs = st.Epochs
	}
	// Queries still answer, pinned to the last good epoch.
	res, err := e.Trust(0, 5, 0)
	if err != nil {
		t.Fatalf("trust in degraded mode: %v", err)
	}
	if res.Epoch != goodEpochs-1 {
		t.Fatalf("degraded query served epoch %d, last good is %d", res.Epoch, goodEpochs-1)
	}
	time.Sleep(5 * time.Millisecond)
	st2 := e.Stats()
	if st2.Epochs != goodEpochs {
		t.Fatalf("epochs advanced in degraded mode: %d -> %d", goodEpochs, st2.Epochs)
	}
	if st2.EpochStalenessMs < st.EpochStalenessMs {
		t.Fatalf("staleness shrank in degraded mode: %d -> %d", st.EpochStalenessMs, st2.EpochStalenessMs)
	}
	// Close surfaces the journal failure instead of swallowing it.
	if err := e.Close(); err == nil {
		t.Fatal("close of a degraded engine returned nil")
	}
}

// TestBackpressureSheds pins the shed policy: with the writer stalled on a
// hung fsync and the queue full, IngestCtx gives up at its deadline with
// ErrOverloaded, the shed counter and queue depth show up in stats, and
// queries remain unaffected throughout.
func TestBackpressureSheds(t *testing.T) {
	f := faultfs.NewFile(nil)
	cfg := crashCfg(f)
	cfg.QueueSize = 2
	cfg.BatchSize = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(71, 72))
	release := f.StallSyncs()
	defer release()

	// Fill the pipeline: the writer blocks inside the stalled group commit,
	// then the queue backs up. Run the fillers in goroutines — each blocks
	// awaiting its durable ack until the disk unsticks.
	var fillers sync.WaitGroup
	for i := 0; i < cfg.QueueSize+2; i++ {
		ev := randomEvent(e, r)
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			e.IngestCtx(context.Background(), ev) // durable acks arrive after release()
		}()
	}
	// Wait until the queue is actually full.
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().QueueDepth < cfg.QueueSize {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", e.Stats().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.IngestCtx(ctx, randomEvent(e, r)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("IngestCtx against a full queue returned %v, want ErrOverloaded", err)
	}
	st := e.Stats()
	if st.ShedTotal == 0 {
		t.Fatal("shed_total is 0 after a shed")
	}
	if st.QueueDepth == 0 {
		t.Fatal("queue_depth is 0 while the writer is stalled")
	}
	// Queries are untouched by a stalled journal writer.
	if _, err := e.Trust(0, 5, 0); err != nil {
		t.Fatalf("trust while stalled: %v", err)
	}
	release()
	fillers.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(f.Bytes())); err != nil {
		t.Fatalf("replay after stall: %v", err)
	}
}

// TestFsyncModes exercises all three -fsync modes over a syncable journal
// and pins their sync-call cadence ordering: always >= batch >= off (== 0).
func TestFsyncModes(t *testing.T) {
	counts := map[FsyncMode]int{}
	for _, mode := range []FsyncMode{fsyncAlways, FsyncBatch, fsyncOff} {
		f := faultfs.NewFile(nil)
		cfg := crashCfg(f)
		cfg.Fsync = mode
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewPCG(81, 82))
		mustIngestN(t, e, r, 20)
		if _, err := e.Trust(0, 5, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		counts[mode] = f.Syncs()
		if _, err := Replay(bytes.NewReader(f.Bytes())); err != nil {
			t.Fatalf("%v: replay: %v", mode, err)
		}
		if mode != fsyncOff {
			if got := e.Stats().FsyncP99Ns; got == 0 {
				t.Fatalf("%v: fsync_p99_ns is 0 after %d syncs", mode, f.Syncs())
			}
		}
	}
	if counts[fsyncOff] != 0 {
		t.Fatalf("fsyncOff synced %d times", counts[fsyncOff])
	}
	if counts[fsyncAlways] < counts[FsyncBatch] || counts[FsyncBatch] == 0 {
		t.Fatalf("sync cadence out of order: always %d, batch %d", counts[fsyncAlways], counts[FsyncBatch])
	}
}

// TestParseFsyncMode pins the flag spellings.
func TestParseFsyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncMode
		ok   bool
	}{
		{"batch", FsyncBatch, true},
		{"always", fsyncAlways, true},
		{"off", fsyncOff, true},
		{"fsync", 0, false},
		{"", 0, false},
	} {
		got, err := ParseFsyncMode(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseFsyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("FsyncMode round trip: %q -> %q", tc.in, got.String())
		}
	}
}

// TestCaptureFailureDegrades injects a capture failure through the engine's
// capture seam: after start, the failed republish degrades the engine
// instead of crashing it — ingest is refused with ErrDegraded (503 over
// HTTP), queries keep answering from the last good epoch, and the journal
// (which holds every acknowledged event) recovers into a healthy engine.
// Before start, the same failure is returned to the caller.
func TestCaptureFailureDegrades(t *testing.T) {
	boom := fmt.Errorf("injected: %w", core.ErrArenaOverflow)
	fail := func(*core.RoundView) (*core.RoundView, error) { return nil, boom }

	f := faultfs.NewFile(nil)
	cfg := crashCfg(f)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// New captured before the writer started and the writer reads the seam
	// only after receiving an event, so this write is ordered before it.
	e.capture = fail
	r := rand.New(rand.NewPCG(71, 72))
	want, err := e.Trust(0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustIngestN(t, e, r, cfg.EpochEvery) // the last one triggers the failing capture
	deadline := time.Now().Add(10 * time.Second)
	for !e.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("engine never degraded after a failed capture")
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.IngestCtx(context.Background(), randomEvent(e, r)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingest after a failed capture returned %v, want ErrDegraded", err)
	}
	if st := e.Stats(); st.Epochs != 1 {
		t.Fatalf("epochs = %d after the failed capture, want the initial one only", st.Epochs)
	}
	got, err := e.Trust(0, 5, 0)
	if err != nil {
		t.Fatalf("trust in degraded mode: %v", err)
	}
	if got != want {
		t.Fatalf("degraded query = %+v, want the epoch-0 answer %+v", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close after a capture failure: %v (the journal itself is healthy)", err)
	}

	img := faultfs.NewFile(f.Bytes())
	e2, rstats, err := Recover(img, crashCfg(img))
	if err != nil {
		t.Fatalf("recover after a capture failure: %v", err)
	}
	if rstats.Events != uint64(cfg.EpochEvery) {
		t.Fatalf("recovered %d events, want the %d acknowledged", rstats.Events, cfg.EpochEvery)
	}
	mustIngestN(t, e2, r, 2*cfg.EpochEvery)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("replay across the capture failure: %v", err)
	}

	// Before the writer starts, the capture error reaches the caller.
	w, err := buildWorld(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	e3 := newEngine(cfg.withDefaults(), w)
	e3.capture = fail
	if err := e3.start(); !errors.Is(err, core.ErrArenaOverflow) {
		t.Fatalf("start with a failing capture returned %v, want ErrArenaOverflow", err)
	}
}
