package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"siot/internal/core"
	"siot/internal/faultfs"
)

// shortConfig is the deterministic session shortJournal serves.
func shortConfig() Config {
	return Config{Net: "twitter", Seed: 7, Seeded: true, EpochEvery: 4}
}

// shortJournal serves a short session and returns its journal and the
// closed engine: its final stats give the next event seq (Applied+1) and
// the last published epoch id (Epochs-1), and its world still answers
// NumAgents and Neighbors.
func shortJournal(tb testing.TB) ([]byte, *Engine) {
	tb.Helper()
	var buf bytes.Buffer
	cfg := shortConfig()
	cfg.Journal = &buf
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 10; i++ {
		if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
			tb.Fatalf("ingest %d: %v", i, err)
		}
		if _, err := e.Trust(core.AgentID(r.IntN(e.NumAgents())), core.AgentID(r.IntN(e.NumAgents())), r.IntN(len(e.TaskTypes()))); err != nil {
			tb.Fatalf("trust: %v", err)
		}
	}
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), e
}

// pairs returns an agent x, one of its social neighbors y, and an agent z
// that is neither x nor a neighbor of x.
func pairs(tb testing.TB, e *Engine) (x, y, z int32) {
	tb.Helper()
	for a := range e.NumAgents() {
		nbrs := e.Neighbors(core.AgentID(a))
		if len(nbrs) == 0 || len(nbrs) >= e.NumAgents()-1 {
			continue
		}
		for b := range e.NumAgents() {
			if _, ok := slices.BinarySearch(nbrs, core.AgentID(b)); !ok && b != a {
				return int32(a), int32(nbrs[0]), int32(b)
			}
		}
	}
	tb.Fatal("no agent has both a neighbor and a non-neighbor")
	return
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

// TestReplayRejectsOutOfRangeAgents: a CRC-valid line that Ingest could
// never have journaled is a line-numbered error from Replay and, for the
// lines Recover re-applies, from Recover — never an index panic, never a
// silently applied event. That covers agent ids outside the population
// (negative, or at least NumAgents), self events, observes between
// non-neighbors, negative outcome components, unknown ops, and epoch ids
// that do not increase. Recover only counts query lines (Replay is the
// auditor), so it resumes past a bad query line, and the continued journal
// still fails Replay at that line.
func TestReplayRejectsOutOfRangeAgents(t *testing.T) {
	base, e := shortJournal(t)
	st, n := e.Stats(), int32(e.NumAgents())
	x, y, z := pairs(t, e)
	seq, epoch := st.Applied+1, st.Epochs-1
	observe := func(trustor, trustee int32, gain, damage, cost float64) journalLine {
		return journalLine{Kind: "event", Event: &eventLine{Seq: seq, Op: "observe", Trustor: trustor, Trustee: trustee, Type: 1, Success: true, Gain: gain, Damage: damage, Cost: cost}}
	}
	event := func(op string, trustor, trustee int32) journalLine {
		return journalLine{Kind: "event", Event: &eventLine{Seq: seq, Op: op, Trustor: trustor, Trustee: trustee, Type: 1, S: 0.5, G: 0.5}}
	}
	query := func(trustor, trustee int32) journalLine {
		return journalLine{Kind: "query", Query: &queryLine{Epoch: epoch, Trustor: trustor, Trustee: trustee, Type: 1, TWBits: "0000000000000000"}}
	}
	marker := func(id uint64) journalLine {
		return journalLine{Kind: "epoch", Epoch: &epochLine{ID: id, Events: st.Applied}}
	}
	const outOfRange = "agent id out of range"
	const negative = "is not a finite non-negative value"
	for _, tc := range []struct {
		name  string
		lines []journalLine
		want  string // the error at the last line
		query bool
	}{
		{"query/trustor=1<<30", []journalLine{query(1<<30, 0)}, outOfRange, true},
		{"query/trustor=-7", []journalLine{query(-7, 0)}, outOfRange, true},
		{"query/trustee=n", []journalLine{query(0, n)}, outOfRange, true},
		{"query/trustee=-1", []journalLine{query(0, -1)}, outOfRange, true},
		{"observe/trustor=-7", []journalLine{observe(-7, 0, 0.5, 0, 0)}, outOfRange, false},
		{"observe/trustee=n", []journalLine{observe(0, n, 0.5, 0, 0)}, outOfRange, false},
		{"recommend/trustor=n", []journalLine{event("recommend", n, 0)}, outOfRange, false},
		{"recommend/trustee=-1", []journalLine{event("recommend", 0, -1)}, outOfRange, false},
		{"observe/self", []journalLine{observe(x, x, 0.5, 0, 0)}, "trustor and trustee are both", false},
		{"recommend/self", []journalLine{event("recommend", y, y)}, "trustor and trustee are both", false},
		{"observe/non-neighbor", []journalLine{observe(x, z, 0.5, 0, 0)}, "are not social neighbors", false},
		{"observe/gain<0", []journalLine{observe(x, y, -0.5, 0, 0)}, negative, false},
		{"observe/damage<0", []journalLine{observe(x, y, 0.5, -0.25, 0)}, negative, false},
		{"observe/cost<0", []journalLine{observe(x, y, 0.5, 0, -1e-9)}, negative, false},
		{"event/unknown op", []journalLine{event("forge", x, y)}, `unknown event op "forge"`, false},
		{"epoch/ids last+2 then last+1", []journalLine{marker(epoch + 2), marker(epoch + 1)},
			fmt.Sprintf("epoch id %d is not increasing", epoch+1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := base
			for _, line := range tc.lines {
				journal = appendLine(t, journal, line)
			}
			at := fmt.Sprintf("serve: %%s: line %d: ", bytes.Count(journal, []byte("\n")))
			// matches reports whether err is the case's error, reported at
			// the last line by the named entry point.
			matches := func(err error, entry string) bool {
				return err != nil && strings.HasPrefix(err.Error(), fmt.Sprintf(at, entry)) && strings.Contains(err.Error(), tc.want)
			}
			replayErr, recoverErr, continued := replayAndRecover(journal)
			if !matches(replayErr, "replay") {
				t.Fatalf("replay error %v, want %q at %q", replayErr, tc.want, fmt.Sprintf(at, "replay"))
			}
			if tc.query {
				if recoverErr != nil {
					t.Fatalf("recover over a counted query line: %v", recoverErr)
				}
				if _, err := Replay(bytes.NewReader(continued)); !matches(err, "replay") {
					t.Fatalf("replay of the continued journal: error %v, want %q at %q", err, tc.want, fmt.Sprintf(at, "replay"))
				}
				return
			}
			if !matches(recoverErr, "recover") {
				t.Fatalf("recover error %v, want %q at %q", recoverErr, tc.want, fmt.Sprintf(at, "recover"))
			}
		})
	}
}

// FuzzReplayLine appends one line built from fuzzed fields to a short real
// journal, in a valid CRC envelope so it reaches the checks behind the
// scanner (raw byte mutation almost never does: FuzzJournalScan covers
// that layer). Replay and Recover must return nil or an error for every
// line, never panic, and agree on every line Recover re-applies. An event
// line carrying the next seq is differential: Replay must accept it
// exactly when Ingest accepts the same Event on an engine built from the
// same config.
func FuzzReplayLine(f *testing.F) {
	base, e := shortJournal(f)
	st := e.Stats()
	x, y, z := pairs(f, e)
	seq, epoch := st.Applied+1, st.Epochs-1
	f.Add(uint8(0), seq, epoch, int32(0), int32(1), 1, 0.5, 0.5, 0.1, 0.1, true)
	f.Add(uint8(1), seq, epoch, int32(3), int32(5), 2, 0.4, 0.6, 0.2, 0.05, false)
	f.Add(uint8(2), seq-1, epoch+1, int32(0), int32(0), 0, 0.0, 0.0, 0.0, 0.0, false)
	f.Add(uint8(3), seq, epoch, int32(1<<30), int32(0), 1, 0.25, 0.0, 0.0, 0.0, true)
	f.Add(uint8(0), seq, epoch, int32(-7), int32(2), 1, 0.5, 0.5, 0.1, 0.1, false)
	f.Add(uint8(3), seq, epoch, int32(4), int32(4), -1, -0.0, 1e308, 5e-324, 0.0, true)
	f.Add(uint8(0), seq, epoch, x, y, 1, 0.5, 0.5, 0.1, 0.1, true)                    // valid observe
	f.Add(uint8(1), seq, epoch, y, x, 2, 0.4, 0.6, 0.2, 0.05, false)                  // valid recommend
	f.Add(uint8(0), seq, epoch, x, x, 1, 0.5, 0.5, 0.1, 0.1, true)                    // self event
	f.Add(uint8(1), seq, epoch, y, y, 1, 0.4, 0.6, 0.2, 0.05, false)                  // self event
	f.Add(uint8(0), seq, epoch, x, z, 1, 0.5, 0.5, 0.1, 0.1, true)                    // non-neighbor
	f.Add(uint8(0), seq, epoch, x, y, 1, -0.5, 0.5, 0.1, 0.1, true)                   // negative gain
	f.Add(uint8(0), seq, epoch, x, y, 1, 0.5, -0.5, 0.1, 0.1, true)                   // negative damage
	f.Add(uint8(0), seq, epoch, x, y, 1, 0.5, 0.5, -0.1, 0.1, true)                   // negative cost
	f.Add(uint8(4), seq, epoch, x, y, 1, 0.5, 0.5, 0.1, 0.1, true)                    // unknown op
	f.Add(uint8(2), seq-1, epoch-1, int32(0), int32(0), 0, 0.0, 0.0, 0.0, 0.0, false) // epoch id decreases

	oracle, err := New(shortConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { oracle.Close() })

	f.Fuzz(func(t *testing.T, kind uint8, seq, epochID uint64, trustor, trustee int32, typ int, a, b, c, d float64, flag bool) {
		var (
			line journalLine
			ev   *Event // the Event an event line journals; nil for other kinds
		)
		who := Event{Trustor: core.AgentID(trustor), Trustee: core.AgentID(trustee), Type: typ}
		switch kind % 5 {
		case 0:
			line = journalLine{Kind: "event", Event: &eventLine{
				Seq: seq, Op: "observe", Trustor: trustor, Trustee: trustee, Type: typ,
				Success: flag, Gain: a, Damage: b, Cost: c, Abusive: flag,
			}}
			ev = &who
			ev.Op, ev.Outcome, ev.Abusive = OpObserve, core.Outcome{Success: flag, Gain: a, Damage: b, Cost: c}, flag
		case 1:
			line = journalLine{Kind: "event", Event: &eventLine{
				Seq: seq, Op: "recommend", Trustor: trustor, Trustee: trustee, Type: typ,
				S: a, G: b, D: c, C: d,
			}}
			ev = &who
			ev.Op, ev.Exp = OpRecommend, core.Expectation{S: a, G: b, D: c, C: d}
		case 2:
			line = journalLine{Kind: "epoch", Epoch: &epochLine{ID: epochID, Events: seq}}
		case 3:
			line = journalLine{Kind: "query", Query: &queryLine{
				Epoch: epochID, Trustor: trustor, Trustee: trustee, Type: typ,
				TW: a, TWBits: fmt.Sprintf("%016x", math.Float64bits(a)), Found: flag, Direct: flag,
			}}
		case 4:
			line = journalLine{Kind: "event", Event: &eventLine{
				Seq: seq, Op: "forge", Trustor: trustor, Trustee: trustee, Type: typ, S: a,
			}}
			ev = &who
			ev.Op = EventOp(2 + int(kind)/5)
		}
		phys, err := encodeJournalLine(line)
		if err != nil {
			return // NaN and ±Inf have no JSON encoding: no engine can journal them
		}
		replayErr, recoverErr, _ := replayAndRecover(append(bytes.Clone(base), phys...))
		if line.Kind != "query" && (replayErr == nil) != (recoverErr == nil) {
			t.Fatalf("replay error %v, recover error %v: the shared journal walk disagrees", replayErr, recoverErr)
		}
		if ev != nil && seq == st.Applied+1 {
			if ingestErr := oracle.IngestCtx(context.Background(), *ev); (replayErr == nil) != (ingestErr == nil) {
				t.Fatalf("replay error %v, ingest error %v for %+v", replayErr, ingestErr, *ev)
			}
		}
	})
}
