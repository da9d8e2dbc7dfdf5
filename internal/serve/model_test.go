package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"siot/internal/core"
	"siot/internal/faultfs"
)

// serveSession runs a mixed ingest/query session under cfg and returns the
// journal bytes plus the engine's final stats. It fails the test unless at
// least one query found a value (a session that serves nothing exercises
// nothing).
func serveSession(t *testing.T, cfg Config, events int) ([]byte, Stats) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Journal = &buf
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(11, cfg.Seed))
	served := 0
	for i := 0; i < events; i++ {
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
	return buf.Bytes(), e.Stats()
}

// TestJournalReplayModels extends the replay contract to the non-policy
// models of the zoo: a session served under each registered model replays
// byte-for-byte, including the trainable hellinger-mf (whose scorer is
// refit per epoch from the journaled events alone).
func TestJournalReplayModels(t *testing.T) {
	for _, name := range core.ModelNames() {
		if slices.Contains(v2Policies, name) {
			continue // the paper's three are TestJournalReplay's models
		}
		t.Run(name, func(t *testing.T) {
			journal, stats := serveSession(t, Config{
				Net: "twitter", Seed: 7, Model: mustModel(t, name), Seeded: true,
				EpochEvery: 8,
			}, 120)
			rs, err := Replay(bytes.NewReader(journal))
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rs.Events != stats.Applied || rs.Queries != stats.Queries || rs.Epochs != stats.Epochs {
				t.Fatalf("replay stats %+v do not match engine stats %+v", rs, stats)
			}
		})
	}
}

func mustModel(t *testing.T, name string) core.TrustModel {
	t.Helper()
	m, err := core.ParseModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rewriteHeader decodes a journal's first physical line, mutates the header
// through f, and re-encodes it (fresh CRC) over the untouched remainder.
func rewriteHeader(t *testing.T, journal []byte, f func(*headerLine)) []byte {
	t.Helper()
	nl := bytes.IndexByte(journal, '\n')
	if nl < 0 {
		t.Fatal("journal has no first line")
	}
	line, err := decodeJournalLine(journal[:nl])
	if err != nil {
		t.Fatalf("decoding header line: %v", err)
	}
	if line.Header == nil {
		t.Fatal("journal does not start with a header")
	}
	f(line.Header)
	phys, err := encodeJournalLine(line)
	if err != nil {
		t.Fatalf("re-encoding header line: %v", err)
	}
	return append(phys, journal[nl+1:]...)
}

// downgradeHeader rewrites a version-3 header naming one of the paper's
// three models to its exact version-2 form: bare policy field, no model.
func downgradeHeader(t *testing.T, journal []byte) []byte {
	t.Helper()
	return rewriteHeader(t, journal, func(h *headerLine) {
		h.Version = prevJournalVersion
		h.Policy = h.Model
		h.Model = ""
	})
}

// TestReplayV2Header is the forward-compatibility contract of the header
// schema bump: a version-2 journal — bare policy header, as every pre-zoo
// engine wrote — still replays bit-for-bit.
func TestReplayV2Header(t *testing.T) {
	journal, stats := serveSession(t, Config{
		Net: "twitter", Seed: 7, Model: core.Conservative, Seeded: true,
		EpochEvery: 8,
	}, 120)
	rs, err := Replay(bytes.NewReader(downgradeHeader(t, journal)))
	if err != nil {
		t.Fatalf("replay of v2-header journal: %v", err)
	}
	if rs.Events != stats.Applied || rs.Queries != stats.Queries || rs.Epochs != stats.Epochs {
		t.Fatalf("replay stats %+v do not match engine stats %+v", rs, stats)
	}
}

// TestRecoverV2Header resumes an engine from a version-2 journal: the
// header's policy pins the model, recovery re-applies the prefix, and the
// continued journal replays end to end.
func TestRecoverV2Header(t *testing.T) {
	journal, stats := serveSession(t, Config{
		Net: "twitter", Seed: 7, Model: core.Conservative, Seeded: true,
		EpochEvery: 8,
	}, 40)
	f := faultfs.NewFile(downgradeHeader(t, journal))
	e, rstats, err := Recover(f, Config{EpochEvery: 8})
	if err != nil {
		t.Fatalf("recover from v2-header journal: %v", err)
	}
	if rstats.Events != stats.Applied {
		t.Fatalf("recover re-applied %d events, journal has %d", rstats.Events, stats.Applied)
	}
	if got := e.cfg.Model.Name(); got != core.Conservative.Name() {
		t.Fatalf("recovered model %q, want %q", got, core.Conservative.Name())
	}
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 20; i++ {
		if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
			t.Fatalf("post-recovery ingest %d: %v", i, err)
		}
	}
	if _, err := e.Trust(0, 1, 0); err != nil {
		t.Fatalf("post-recovery trust: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(f.Bytes())); err != nil {
		t.Fatalf("replay of recovered journal: %v", err)
	}
}

// TestReplayHeaderRejections pins the typed-error contract: an unknown
// model name, an unknown version-2 policy, a version-2 policy naming a zoo
// model (version 2 predates the zoo), and an unrecognized header version
// are each rejected up front with the matching sentinel — never silently
// defaulted to some model.
func TestReplayHeaderRejections(t *testing.T) {
	journal, _ := serveSession(t, Config{
		Net: "twitter", Seed: 7, Seeded: true, EpochEvery: 8,
	}, 20)
	cases := []struct {
		name     string
		mutate   func(*headerLine)
		sentinel error
	}{
		{"unknown model", func(h *headerLine) { h.Model = "galactic-consensus" }, ErrJournalModel},
		{"unknown v2 policy", func(h *headerLine) {
			h.Version = prevJournalVersion
			h.Model = ""
			h.Policy = "galactic-consensus"
		}, ErrJournalModel},
		{"v2 policy naming a zoo model", func(h *headerLine) {
			h.Version = prevJournalVersion
			h.Model = ""
			h.Policy = "feature-weighted"
		}, ErrJournalModel},
		{"future version", func(h *headerLine) { h.Version = journalVersion + 1 }, ErrJournalVersion},
		{"prehistoric version", func(h *headerLine) { h.Version = 1 }, ErrJournalVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tampered := rewriteHeader(t, journal, tc.mutate)
			if _, err := Replay(bytes.NewReader(tampered)); !errors.Is(err, tc.sentinel) {
				t.Fatalf("replay error %v, want %v", err, tc.sentinel)
			}
			f := faultfs.NewFile(tampered)
			if _, _, err := Recover(f, Config{}); !errors.Is(err, tc.sentinel) {
				t.Fatalf("recover error %v, want %v", err, tc.sentinel)
			}
		})
	}
}

// TestReplayHeaderNotWrittenByNew: New journals its defaulted config, so a
// header with a non-positive alphabet, or with neither a profile name nor a
// node count, is rejected by Replay and by Recover, never defaulted, and
// Recover leaves the journal as it was.
func TestReplayHeaderNotWrittenByNew(t *testing.T) {
	journal, _ := serveSession(t, Config{Net: "twitter", Seed: 7, Seeded: true, EpochEvery: 8}, 20)
	for name, mutate := range map[string]func(*headerLine){
		"zero chars":         func(h *headerLine) { h.Chars = 0 },
		"negative chars":     func(h *headerLine) { h.Chars = -3 },
		"no profile or size": func(h *headerLine) { h.Net = "" },
	} {
		t.Run(name, func(t *testing.T) {
			tampered := rewriteHeader(t, journal, mutate)
			if _, err := Replay(bytes.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "not one New writes") {
				t.Fatalf("replay error %v, want the header rejected", err)
			}
			f := faultfs.NewFile(bytes.Clone(tampered))
			if _, _, err := Recover(f, Config{}); err == nil || !strings.Contains(err.Error(), "not one New writes") {
				t.Fatalf("recover error %v, want the header rejected", err)
			}
			if !bytes.Equal(f.Bytes(), tampered) {
				t.Fatal("the rejected recovery changed the journal")
			}
		})
	}
}
