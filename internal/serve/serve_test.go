package serve

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"siot/internal/core"
)

// randomEvent draws a valid event along a real social edge.
func randomEvent(e *Engine, r *rand.Rand) Event {
	pop := e.world.pop
	for {
		trustor := core.AgentID(r.IntN(e.NumAgents()))
		nbrs := pop.Neighbors(trustor)
		if len(nbrs) == 0 {
			continue
		}
		ev := Event{
			Trustor: trustor,
			Trustee: nbrs[r.IntN(len(nbrs))],
			Type:    r.IntN(len(e.TaskTypes())),
		}
		if r.Float64() < 0.5 {
			ev.Op = OpObserve
			ev.Outcome = core.Outcome{
				Success: r.Float64() < 0.7,
				Gain:    r.Float64(), Damage: r.Float64(), Cost: 0.2 * r.Float64(),
			}
			ev.Abusive = r.Float64() < 0.1
		} else {
			ev.Op = OpRecommend
			ev.Exp = core.Expectation{S: r.Float64(), G: r.Float64(), D: r.Float64(), C: 0.2 * r.Float64()}
		}
		return ev
	}
}

// TestJournalReplay is the replay contract: a mixed ingest/query session's
// journal, replayed from scratch, reproduces every served trust value
// byte-for-byte.
func TestJournalReplay(t *testing.T) {
	for k, model := range []core.TrustModel{core.Traditional, core.Conservative, core.Aggressive} {
		t.Run(model.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			e, err := New(Config{
				Net: "twitter", Seed: 7, Model: model, Seeded: true,
				EpochEvery: 8, Journal: &buf,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The sub-test index keeps each model's historical session.
			r := rand.New(rand.NewPCG(11, uint64(k)))
			served := 0
			for i := 0; i < 120; i++ {
				if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
				for q := 0; q < 3; q++ {
					trustor := core.AgentID(r.IntN(e.NumAgents()))
					trustee := core.AgentID(r.IntN(e.NumAgents()))
					if trustor == trustee {
						continue
					}
					res, err := e.Trust(trustor, trustee, r.IntN(len(e.TaskTypes())))
					if err != nil {
						t.Fatalf("trust: %v", err)
					}
					if res.Found {
						served++
					}
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if served == 0 {
				t.Fatal("no query found a trust value; test exercises nothing")
			}
			stats := e.Stats()
			if stats.Applied != stats.Ingested {
				t.Fatalf("close dropped events: ingested %d, applied %d", stats.Ingested, stats.Applied)
			}

			rs, err := Replay(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rs.Events != stats.Applied || rs.Queries != stats.Queries || rs.Epochs != stats.Epochs {
				t.Fatalf("replay stats %+v do not match engine stats %+v", rs, stats)
			}
		})
	}
}

// TestReplayDetectsTampering flips one recorded trust value and expects
// replay to reject the journal.
func TestReplayDetectsTampering(t *testing.T) {
	var buf bytes.Buffer
	e, err := New(Config{Net: "twitter", Seed: 7, Seeded: true, EpochEvery: 4, Journal: &buf})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(3, 4))
	tampered := false
	for i := 0; i < 40; i++ {
		if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Trust(core.AgentID(r.IntN(e.NumAgents())), core.AgentID(r.IntN(e.NumAgents()-1)+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for i, ln := range lines {
		l, err := decodeJournalLine([]byte(ln))
		if err != nil {
			t.Fatal(err)
		}
		if l.Kind == "query" {
			// Flip the low bit of the recorded value, re-wrapping with a
			// fresh CRC so the value divergence — not the checksum — is
			// what replay must catch.
			b := []byte(l.Query.TWBits)
			if b[15] == '0' {
				b[15] = '1'
			} else {
				b[15] = '0'
			}
			l.Query.TWBits = string(b)
			mod, err := encodeJournalLine(l)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = strings.TrimSuffix(string(mod), "\n")
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("journal holds no query line to tamper with")
	}
	if _, err := Replay(strings.NewReader(strings.Join(lines, "\n") + "\n")); err == nil {
		t.Fatal("replay accepted a tampered journal")
	}
}

// TestReplayDetectsBitRot flips one raw byte inside a journal line without
// fixing up the CRC: replay must reject the line on its checksum, naming
// the damaged line.
func TestReplayDetectsBitRot(t *testing.T) {
	var buf bytes.Buffer
	e, err := New(Config{Net: "twitter", Seed: 7, Seeded: true, EpochEvery: 4, Journal: &buf})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 12; i++ {
		if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a byte in the middle of the second line (inside the payload, so
	// the envelope still parses but the CRC cannot match).
	firstNL := bytes.IndexByte(raw, '\n')
	target := firstNL + (bytes.IndexByte(raw[firstNL+1:], '\n') / 2)
	if raw[target] == '1' {
		raw[target] = '2'
	} else {
		raw[target] = '1'
	}
	_, err = Replay(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("replay accepted a bit-rotted journal")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %v does not report corruption", err)
	}
}

// TestServeQueryDuringSwap is the query-during-swap soak: with an epoch
// republished after every single event, concurrent queries keep acquiring
// and releasing snapshots across swaps. Run under -race; afterwards the
// journal must still replay cleanly.
func TestServeQueryDuringSwap(t *testing.T) {
	var buf bytes.Buffer
	e, err := New(Config{
		Net: "twitter", Seed: 9, Model: core.Conservative, Seeded: true,
		EpochEvery: 1, BatchSize: 1, Journal: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	const queryWorkers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 99))
			// Cap per-worker queries: every served value is journaled and
			// re-answered by the Replay below, so an unbounded loop would
			// turn the soak into a replay benchmark.
			for i := 0; i < 2000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				trustor := core.AgentID(r.IntN(e.NumAgents()))
				trustee := core.AgentID(r.IntN(e.NumAgents()))
				if trustor == trustee {
					continue
				}
				if _, err := e.Trust(trustor, trustee, r.IntN(len(e.TaskTypes()))); err != nil {
					t.Errorf("trust: %v", err)
					return
				}
			}
		}(w)
	}
	const events = 60
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < events; i++ {
		if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	// Let the writer chew through the queue so many swaps happen while the
	// query workers are live.
	for e.Stats().Applied < events {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	stats := e.Stats()
	if stats.Epochs < events/2 {
		t.Fatalf("expected ~%d epoch swaps, got %d", events, stats.Epochs)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries served during the soak")
	}
	if stats.QueryP99Ns < stats.QueryP50Ns {
		t.Fatalf("latency quantiles inverted: p50 %d > p99 %d", stats.QueryP50Ns, stats.QueryP99Ns)
	}
	if _, err := Replay(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("replay after soak: %v", err)
	}
}

// TestIngestValidation rejects events the frozen-epoch contract cannot
// serve.
func TestIngestValidation(t *testing.T) {
	e, err := New(Config{Net: "twitter", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	nbr := e.world.pop.Neighbors(0)[0]
	var notNeighbor core.AgentID = -1
	for id := core.AgentID(1); int(id) < e.NumAgents(); id++ {
		nbrs := e.world.pop.Neighbors(0)
		found := false
		for _, v := range nbrs {
			if v == id {
				found = true
				break
			}
		}
		if !found {
			notNeighbor = id
			break
		}
	}
	cases := []struct {
		name string
		ev   Event
	}{
		{"trustor out of range", Event{Trustor: -1, Trustee: nbr}},
		{"trustee out of range", Event{Trustor: 0, Trustee: core.AgentID(e.NumAgents())}},
		{"self event", Event{Trustor: 0, Trustee: 0}},
		{"task type out of range", Event{Trustor: 0, Trustee: nbr, Type: len(e.TaskTypes())}},
		{"not neighbors", Event{Trustor: 0, Trustee: notNeighbor}},
		{"non-finite outcome", Event{Trustor: 0, Trustee: nbr, Op: OpObserve,
			Outcome: core.Outcome{Gain: -1}}},
		{"non-finite expectation", Event{Trustor: 0, Trustee: nbr, Op: OpRecommend,
			Exp: core.Expectation{S: nan()}}},
		{"unknown op", Event{Trustor: 0, Trustee: nbr, Op: EventOp(99)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := e.IngestCtx(context.Background(), tc.ev); err == nil {
				t.Fatalf("Ingest accepted %+v", tc.ev)
			}
		})
	}
	if _, err := e.Trust(-1, 1, 0); err == nil {
		t.Fatal("Trust accepted out-of-range trustor")
	}
	if _, err := e.Trust(0, 1, -1); err == nil {
		t.Fatal("Trust accepted out-of-range task type")
	}
}

// TestNewRejectsNonFiniteTheta checks that New refuses a NaN or infinite
// reverse-evaluation threshold before it builds the world or writes the
// journal header, which JSON could not encode.
func TestNewRejectsNonFiniteTheta(t *testing.T) {
	for _, theta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		e, err := New(Config{Net: "twitter", Seed: 1, Theta: theta, Journal: &buf})
		if err == nil {
			e.Close()
			t.Fatalf("New accepted theta %v", theta)
		}
		if buf.Len() != 0 {
			t.Fatalf("theta %v: journal holds %q", theta, buf.String())
		}
	}
}

// TestConfigValidate checks that Validate accepts the default world, a
// named profile and the 100k-node benchmark world, and rejects what New
// rejects before writing to the journal: a non-finite theta, an unknown
// profile name, a node count socialgen cannot build, and a negative count
// or interval (zero alone asks for a default).
func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{{}, {Net: "twitter"}, {Nodes: 100_000, Seeded: true, Theta: 0.3}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", cfg, err)
		}
	}
	for _, cfg := range []Config{{Theta: math.NaN()}, {Net: "orkut"}, {Nodes: 3}, {Nodes: -5}, {Net: "twitter", Nodes: -1}, {EpochInterval: -time.Second},
		{Net: "twitter", Chars: -3}, {Net: "twitter", EpochEvery: -1}, {Net: "twitter", BatchSize: -2},
		{Net: "twitter", QueueSize: -1}, {Net: "twitter", Workers: -4}} {
		if cfg.Validate() == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
		var buf bytes.Buffer
		cfg.Journal = &buf
		if e, err := New(cfg); err == nil {
			e.Close()
			t.Errorf("New accepted %+v", cfg)
		}
		if buf.Len() != 0 {
			t.Errorf("%+v: journal holds %q", cfg, buf.String())
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestEngineClosed pins the post-Close error surface.
func TestEngineClosed(t *testing.T) {
	e, err := New(Config{Net: "twitter", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nbr := e.world.pop.Neighbors(0)[0]
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := e.IngestCtx(context.Background(), Event{Trustor: 0, Trustee: nbr}); err != ErrClosed {
		t.Fatalf("Ingest after Close: %v, want ErrClosed", err)
	}
	if _, err := e.Trust(0, nbr, 0); err != ErrClosed {
		t.Fatalf("Trust after Close: %v, want ErrClosed", err)
	}
}

// TestLatencyHistQuantile pins the histogram's bucket math.
func TestLatencyHistQuantile(t *testing.T) {
	var h latencyHist
	if got := h.quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	for i := 0; i < 99; i++ {
		h.observe(1000) // bucket 10: [512, 1024)
	}
	h.observe(1 << 40)
	if got := h.quantile(0.5); got != 1<<10 {
		t.Fatalf("p50 = %d, want %d", got, 1<<10)
	}
	if got := h.quantile(0.99); got != 1<<41 {
		t.Fatalf("p99 = %d, want %d", got, int64(1)<<41)
	}
	h.observe(-5)
	if got := h.quantile(0); got != 0 {
		t.Fatalf("p0 after negative sample = %d, want 0", got)
	}
}

// TestRepublishCopiesCleanRows: a republish after a few events reads only
// the rows those events wrote — an observation writes the trustor's and the
// trustee's store, a recommendation the trustor's — and copies the rest
// from the previous epoch; the republish timings reach Stats, and Replay,
// which re-derives every epoch from a full capture, reproduces every value
// the delta epochs served.
func TestRepublishCopiesCleanRows(t *testing.T) {
	var buf bytes.Buffer
	const every = 4
	e, err := New(Config{
		Net: "twitter", Seed: 7, Model: core.Aggressive, Seeded: true,
		EpochEvery: every, BatchSize: every, Journal: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().RowsRecaptured; got != int64(e.NumAgents()) {
		t.Fatalf("first epoch read %d rows, want all %d", got, e.NumAgents())
	}
	r := rand.New(rand.NewPCG(81, 82))
	for round := 1; round <= 5; round++ {
		written := map[core.AgentID]bool{}
		for i := 0; i < every; i++ {
			ev := randomEvent(e, r)
			written[ev.Trustor] = true
			if ev.Op == OpObserve {
				written[ev.Trustee] = true
			}
			if err := e.IngestCtx(context.Background(), ev); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for e.Stats().Epochs < uint64(round+1) {
			if time.Now().After(deadline) {
				t.Fatalf("epoch %d never published", round)
			}
			time.Sleep(time.Millisecond)
		}
		if got := e.Stats().RowsRecaptured; got != int64(len(written)) {
			t.Fatalf("epoch %d read %d rows, want the %d the events wrote", round, got, len(written))
		}
		for q := 0; q < 50; q++ {
			if _, err := e.Trust(core.AgentID(r.IntN(e.NumAgents())), core.AgentID(r.IntN(e.NumAgents())), r.IntN(len(e.TaskTypes()))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := e.Stats()
	if st.RepublishP50Ns <= 0 || st.RepublishP99Ns < st.RepublishP50Ns {
		t.Fatalf("republish quantiles p50=%d p99=%d", st.RepublishP50Ns, st.RepublishP99Ns)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("replay of delta epochs: %v", err)
	}
}
