package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"siot/internal/core"
	"siot/internal/faultfs"
)

// shortJournal serves a short session and returns its journal, the
// engine's final stats (the next event seq is Applied+1, the last published
// epoch id Epochs-1) and its agent count.
func shortJournal(tb testing.TB) ([]byte, Stats, int32) {
	tb.Helper()
	var buf bytes.Buffer
	e, err := New(Config{Net: "twitter", Seed: 7, Seeded: true, EpochEvery: 4, Journal: &buf})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 10; i++ {
		if err := e.Ingest(randomEvent(e, r)); err != nil {
			tb.Fatalf("ingest %d: %v", i, err)
		}
		if _, err := e.Trust(core.AgentID(r.IntN(e.NumAgents())), core.AgentID(r.IntN(e.NumAgents())), r.IntN(len(e.TaskTypes()))); err != nil {
			tb.Fatalf("trust: %v", err)
		}
	}
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), e.Stats(), int32(e.NumAgents())
}

// appendLine returns a copy of journal with line appended in its CRC
// envelope, so the line gets past the scanner to the checks behind it.
func appendLine(tb testing.TB, journal []byte, line journalLine) []byte {
	tb.Helper()
	phys, err := encodeJournalLine(line)
	if err != nil {
		tb.Fatal(err)
	}
	return append(bytes.Clone(journal), phys...)
}

// replayAndRecover runs Replay and Recover (on a faultfs image) over
// journal and returns their errors plus, when Recover succeeded, the
// continued journal its engine left behind once closed.
func replayAndRecover(journal []byte) (replayErr, recoverErr error, continued []byte) {
	_, replayErr = Replay(bytes.NewReader(journal))
	img := faultfs.NewFile(bytes.Clone(journal))
	e, _, recoverErr := Recover(img, Config{Journal: img})
	if recoverErr == nil {
		recoverErr = e.Close()
		continued = img.Bytes()
	}
	return replayErr, recoverErr, continued
}

// TestReplayRejectsOutOfRangeAgents: a CRC-valid line naming an agent id
// outside the population (negative, or at least NumAgents) is a
// line-numbered error from Replay and, for the events Recover re-applies,
// from Recover — never an index panic. Recover only counts query lines
// (Replay is the auditor), so it resumes past a bad query line, and the
// continued journal still fails Replay at that line.
func TestReplayRejectsOutOfRangeAgents(t *testing.T) {
	base, st, n := shortJournal(t)
	ln := bytes.Count(base, []byte("\n")) + 1
	seq, epoch := st.Applied+1, st.Epochs-1
	observe := func(trustor, trustee int32) journalLine {
		return journalLine{Kind: "event", Event: &eventLine{Seq: seq, Op: "observe", Trustor: trustor, Trustee: trustee, Type: 1, Success: true, Gain: 0.5}}
	}
	recommend := func(trustor, trustee int32) journalLine {
		return journalLine{Kind: "event", Event: &eventLine{Seq: seq, Op: "recommend", Trustor: trustor, Trustee: trustee, Type: 1, S: 0.5, G: 0.5}}
	}
	query := func(trustor, trustee int32) journalLine {
		return journalLine{Kind: "query", Query: &queryLine{Epoch: epoch, Trustor: trustor, Trustee: trustee, Type: 1, TWBits: "0000000000000000"}}
	}
	for _, tc := range []struct {
		name    string
		line    journalLine
		isEvent bool
	}{
		{"query/trustor=1<<30", query(1<<30, 0), false},
		{"query/trustor=-7", query(-7, 0), false},
		{"query/trustee=n", query(0, n), false},
		{"query/trustee=-1", query(0, -1), false},
		{"observe/trustor=-7", observe(-7, 0), true},
		{"observe/trustee=n", observe(0, n), true},
		{"recommend/trustor=n", recommend(n, 0), true},
		{"recommend/trustee=-1", recommend(0, -1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := appendLine(t, base, tc.line)
			want := fmt.Sprintf("line %d: agent id out of range", ln)
			replayErr, recoverErr, continued := replayAndRecover(journal)
			if replayErr == nil || !strings.Contains(replayErr.Error(), want) {
				t.Fatalf("replay error %v, want %q", replayErr, want)
			}
			if !tc.isEvent {
				if recoverErr != nil {
					t.Fatalf("recover over a counted query line: %v", recoverErr)
				}
				if _, err := Replay(bytes.NewReader(continued)); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("replay of the continued journal: error %v, want %q", err, want)
				}
				return
			}
			if recoverErr == nil || !strings.Contains(recoverErr.Error(), want) {
				t.Fatalf("recover error %v, want %q", recoverErr, want)
			}
		})
	}
}

// FuzzReplayLine appends one line built from fuzzed fields to a short real
// journal, in a valid CRC envelope so it reaches the checks behind the
// scanner (raw byte mutation almost never does: FuzzJournalScan covers
// that layer). Replay and Recover must return nil or an error for every
// line, never panic.
func FuzzReplayLine(f *testing.F) {
	base, st, _ := shortJournal(f)
	seq, epoch := st.Applied+1, st.Epochs-1
	f.Add(uint8(0), seq, epoch, int32(0), int32(1), 1, 0.5, 0.5, 0.1, 0.1, true)
	f.Add(uint8(1), seq, epoch, int32(3), int32(5), 2, 0.4, 0.6, 0.2, 0.05, false)
	f.Add(uint8(2), seq-1, epoch+1, int32(0), int32(0), 0, 0.0, 0.0, 0.0, 0.0, false)
	f.Add(uint8(3), seq, epoch, int32(1<<30), int32(0), 1, 0.25, 0.0, 0.0, 0.0, true)
	f.Add(uint8(0), seq, epoch, int32(-7), int32(2), 1, 0.5, 0.5, 0.1, 0.1, false)
	f.Add(uint8(3), seq, epoch, int32(4), int32(4), -1, -0.0, 1e308, 5e-324, 0.0, true)

	f.Fuzz(func(t *testing.T, kind uint8, seq, epochID uint64, trustor, trustee int32, typ int, a, b, c, d float64, flag bool) {
		var line journalLine
		switch kind % 4 {
		case 0:
			line = journalLine{Kind: "event", Event: &eventLine{
				Seq: seq, Op: "observe", Trustor: trustor, Trustee: trustee, Type: typ,
				Success: flag, Gain: a, Damage: b, Cost: c, Abusive: flag,
			}}
		case 1:
			line = journalLine{Kind: "event", Event: &eventLine{
				Seq: seq, Op: "recommend", Trustor: trustor, Trustee: trustee, Type: typ,
				S: a, G: b, D: c, C: d,
			}}
		case 2:
			line = journalLine{Kind: "epoch", Epoch: &epochLine{ID: epochID, Events: seq}}
		case 3:
			line = journalLine{Kind: "query", Query: &queryLine{
				Epoch: epochID, Trustor: trustor, Trustee: trustee, Type: typ,
				TW: a, TWBits: fmt.Sprintf("%016x", math.Float64bits(a)), Found: flag, Direct: flag,
			}}
		}
		phys, err := encodeJournalLine(line)
		if err != nil {
			return // NaN and ±Inf have no JSON encoding: no engine can journal them
		}
		replayAndRecover(append(bytes.Clone(base), phys...))
	})
}
