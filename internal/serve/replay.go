package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"

	"siot/internal/core"
)

// ReplayStats summarizes a verified journal.
type ReplayStats struct {
	Events  uint64 `json:"events"`
	Epochs  uint64 `json:"epochs"`
	Queries uint64 `json:"queries"`
}

// ErrJournalVersion is returned (wrapped) by Replay and Recover when the
// journal header carries a version this build does not speak. Match with
// errors.Is.
var ErrJournalVersion = errors.New("unsupported journal header version")

// ErrJournalModel is returned (wrapped) by Replay and Recover when the
// journal header names a trust model — or, in version-2 headers, a policy —
// that is not registered in this build. Replaying under a silently
// substituted model would diverge on the first non-direct query, so the
// header is rejected up front instead. Match with errors.Is.
var ErrJournalModel = errors.New("unknown trust model in journal header")

// v2Policies are the names a version-2 header's policy field may hold:
// version 2 predates the trust-model zoo, so only the paper's three
// methods.
var v2Policies = []string{core.Traditional.Name(), core.Conservative.Name(), core.Aggressive.Name()}

// replayHeader reads and validates the journal's first line, which must be
// an intact header of a supported version, and returns the fully defaulted
// config it pins. Shared by Replay and Recover. Version 2 headers (bare
// policy, pre-zoo) resolve to the model of that name and replay
// byte-for-byte; version 3 headers name any registered model.
func replayHeader(s *journalScanner) (Config, error) {
	line, err := s.next()
	if err != nil {
		return Config{}, fmt.Errorf("reading header: %w", err)
	}
	if line.Kind != "header" || line.Header == nil {
		return Config{}, fmt.Errorf("journal starts with %q, want header", line.Kind)
	}
	h := *line.Header
	name := h.Model
	switch h.Version {
	case prevJournalVersion:
		if !slices.Contains(v2Policies, h.Policy) {
			return Config{}, fmt.Errorf("%w: version-2 policy %q (want one of %v)", ErrJournalModel, h.Policy, v2Policies)
		}
		name = h.Policy
	case journalVersion:
	default:
		return Config{}, fmt.Errorf("%w: %d (want %d or %d)",
			ErrJournalVersion, h.Version, prevJournalVersion, journalVersion)
	}
	mdl, err := core.ParseModel(name)
	if err != nil {
		return Config{}, fmt.Errorf("%w: %v", ErrJournalModel, err)
	}
	return Config{
		Net: h.Net, Nodes: h.Nodes, Seed: h.Seed, Chars: h.Chars,
		Model: mdl, Seeded: h.Seeded, Theta: h.Theta,
	}.withDefaults(), nil
}

// checkAgents rejects a journaled trustor/trustee pair outside the world's
// agents: a line whose CRC verifies can still carry ids no engine served.
func checkAgents(w *world, trustor, trustee int32) error {
	if n := int32(len(w.pop.Agents)); trustor < 0 || trustor >= n || trustee < 0 || trustee >= n {
		return fmt.Errorf("agent id out of range [0, %d): trustor %d, trustee %d", n, trustor, trustee)
	}
	return nil
}

// applyEventLine re-applies one journaled event to a world, enforcing the
// dense-sequence contract. applied is the count of events already applied.
func applyEventLine(w *world, ev *eventLine, applied uint64) error {
	if ev == nil {
		return errors.New("event line without payload")
	}
	if ev.Seq != applied+1 {
		return fmt.Errorf("event seq %d, want %d", ev.Seq, applied+1)
	}
	if err := checkAgents(w, ev.Trustor, ev.Trustee); err != nil {
		return err
	}
	if ev.Type < 0 || ev.Type >= len(w.setup.Universe.Tasks) {
		return fmt.Errorf("task type %d out of range", ev.Type)
	}
	tk := w.setup.Universe.Tasks[ev.Type]
	switch ev.Op {
	case "observe":
		out := core.Outcome{Success: ev.Success, Gain: ev.Gain, Damage: ev.Damage, Cost: ev.Cost}
		w.pop.Agent(core.AgentID(ev.Trustor)).Store.Observe(core.AgentID(ev.Trustee), tk, out, core.PerfectEnv())
		w.pop.Agent(core.AgentID(ev.Trustee)).Store.ObserveUsage(core.AgentID(ev.Trustor), ev.Abusive)
	case "recommend":
		exp := core.Expectation{S: ev.S, G: ev.G, D: ev.D, C: ev.C}
		w.pop.Agent(core.AgentID(ev.Trustor)).Store.Seed(core.AgentID(ev.Trustee), tk, exp)
	default:
		return fmt.Errorf("unknown event op %q", ev.Op)
	}
	return nil
}

// Replay re-executes a trust-assertion journal and verifies it: the world
// is rebuilt from the header's recipe, events are re-applied in journal
// order, each epoch marker re-captures a frozen view, and every query line
// is re-answered from its recorded epoch and compared bit-for-bit against
// the journaled TW. Any mismatch — a CRC-failing or torn line, sequence
// gap, event-count drift at an epoch, unknown epoch id, or a single
// differing bit — fails with a descriptive error. A nil error is the replay
// contract: every value the engine ever served is reproducible from the
// journal alone. (Replay is strict: it rejects even a torn final line; run
// Recover first to truncate a crashed journal's tail.)
func Replay(r io.Reader) (ReplayStats, error) {
	var stats ReplayStats
	s := newJournalScanner(r)
	cfg, err := replayHeader(s)
	if err != nil {
		return stats, fmt.Errorf("serve: replay: %w", err)
	}
	w, err := buildWorld(cfg)
	if err != nil {
		return stats, fmt.Errorf("serve: replay: %w", err)
	}

	workers := runtime.GOMAXPROCS(0)
	pool := core.NewArenaPool()
	// Served queries may cite any past epoch (a query can straddle a swap,
	// and journal lines from concurrent queries interleave), so re-captured
	// epochs live until the journal ends.
	epochs := make(map[uint64]*epoch)
	defer func() {
		for _, ep := range epochs {
			ep.free()
		}
	}()
	norm := w.pop.Config().Update.Norm
	for {
		line, err := s.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return stats, nil
			}
			return stats, fmt.Errorf("serve: replay: %w", err)
		}
		ln := s.Ln()
		switch line.Kind {
		case "event":
			if err := applyEventLine(w, line.Event, stats.Events); err != nil {
				return stats, fmt.Errorf("serve: replay: line %d: %w", ln, err)
			}
			stats.Events++
		case "epoch":
			ep := line.Epoch
			if ep == nil {
				return stats, fmt.Errorf("serve: replay: line %d: epoch line without payload", ln)
			}
			if ep.Events != stats.Events {
				return stats, fmt.Errorf("serve: replay: line %d: epoch %d captured at %d events, journal has applied %d", ln, ep.ID, ep.Events, stats.Events)
			}
			if _, dup := epochs[ep.ID]; dup {
				return stats, fmt.Errorf("serve: replay: line %d: duplicate epoch id %d", ln, ep.ID)
			}
			// A full capture: replay re-derives every epoch independently
			// of the one before.
			view, err := w.pop.RoundViewFrom(nil, workers, pool)
			if err != nil {
				return stats, fmt.Errorf("serve: replay: line %d: epoch %d: %w", ln, ep.ID, err)
			}
			memo := core.NewEdgeMemoPooled(view.TrustView, norm, workers, pool)
			memo.RequireModel(cfg.Model, w.setup.Universe.Tasks)
			epochs[ep.ID] = &epoch{id: ep.ID, view: view, memo: memo}
			stats.Epochs++
		case "query":
			q := line.Query
			if q == nil {
				return stats, fmt.Errorf("serve: replay: line %d: query line without payload", ln)
			}
			ep, ok := epochs[q.Epoch]
			if !ok {
				return stats, fmt.Errorf("serve: replay: line %d: query references unknown epoch %d", ln, q.Epoch)
			}
			if q.Type < 0 || q.Type >= len(w.setup.Universe.Tasks) {
				return stats, fmt.Errorf("serve: replay: line %d: task type %d out of range", ln, q.Type)
			}
			if err := checkAgents(w, q.Trustor, q.Trustee); err != nil {
				return stats, fmt.Errorf("serve: replay: line %d: %w", ln, err)
			}
			res, err := answer(w.searcher, ep.view, ep.memo,
				core.AgentID(q.Trustor), core.AgentID(q.Trustee), w.setup.Universe.Tasks[q.Type], cfg.Model)
			if err != nil {
				return stats, fmt.Errorf("serve: replay: line %d: %w", ln, err)
			}
			bits := fmt.Sprintf("%016x", math.Float64bits(res.TW))
			if bits != q.TWBits || res.Found != q.Found || res.Direct != q.Direct {
				return stats, fmt.Errorf(
					"serve: replay: line %d: trust(%d, %d, type %d) @ epoch %d diverged: got tw=%v bits=%s found=%v direct=%v, journal has tw=%v bits=%s found=%v direct=%v",
					ln, q.Trustor, q.Trustee, q.Type, q.Epoch,
					res.TW, bits, res.Found, res.Direct, q.TW, q.TWBits, q.Found, q.Direct)
			}
			stats.Queries++
		case "header":
			return stats, fmt.Errorf("serve: replay: line %d: duplicate header", ln)
		default:
			return stats, fmt.Errorf("serve: replay: line %d: unknown line kind %q", ln, line.Kind)
		}
	}
}
