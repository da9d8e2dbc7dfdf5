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
	// New writes its defaulted config: a positive alphabet, and a profile
	// name or a node count.
	if h.Chars <= 0 || h.Net == "" && h.Nodes == 0 {
		return Config{}, fmt.Errorf("header (net %q, nodes %d, chars %d) is not one New writes", h.Net, h.Nodes, h.Chars)
	}
	return Config{
		Net: h.Net, Nodes: h.Nodes, Seed: h.Seed, Chars: h.Chars,
		Model: mdl, Seeded: h.Seeded, Theta: h.Theta,
	}.withDefaults(), nil
}

// walk reads a journal's lines after the header: the one loop Replay and
// Recover share. Every event is checked and re-applied through the same
// world.validate and world.apply the engine runs, so a journaled event is
// exactly one IngestCtx would have accepted; each epoch marker and query line
// then goes to its callback (a nil query callback only counts queries).
// walk owns every rule of the format itself: lines carry their payload,
// event seqs are dense, an epoch marker's event count matches what was
// applied and its id is greater than the last one, the header comes only
// once, and no line kind is unknown. A broken rule or a failed callback
// comes back as "line N: ..."; a damaged line comes back as the scanner's
// *corruptError, untouched, so Recover can apply the torn-tail rule. A
// clean end of the journal returns a nil error.
func walk(s *journalScanner, w *world, epoch func(*epochLine) error, query func(*queryLine) error) (ReplayStats, error) {
	var (
		stats ReplayStats
		last  uint64 // the id of the last epoch marker, when stats.Epochs > 0
	)
	for {
		line, err := s.next()
		if errors.Is(err, io.EOF) {
			return stats, nil
		}
		if err != nil {
			return stats, err
		}
		switch ev, ep, q := line.Event, line.Epoch, line.Query; line.Kind {
		case "event":
			switch {
			case ev == nil:
				err = errors.New("event line without payload")
			case ev.Seq != stats.Events+1:
				err = fmt.Errorf("event seq %d, want %d", ev.Seq, stats.Events+1)
			default:
				if err = w.validate(ev); err == nil {
					w.apply(ev)
					stats.Events++
				}
			}
		case "epoch":
			switch {
			case ep == nil:
				err = errors.New("epoch line without payload")
			case ep.Events != stats.Events:
				err = fmt.Errorf("epoch %d captured at %d events, journal has applied %d", ep.ID, ep.Events, stats.Events)
			case stats.Epochs > 0 && ep.ID <= last:
				err = fmt.Errorf("epoch id %d is not increasing (last was %d)", ep.ID, last)
			default:
				if err = epoch(ep); err == nil {
					last = ep.ID
					stats.Epochs++
				}
			}
		case "query":
			switch {
			case q == nil:
				err = errors.New("query line without payload")
			case query != nil:
				err = query(q)
			}
			if err == nil {
				stats.Queries++
			}
		case "header":
			err = errors.New("duplicate header")
		default:
			err = fmt.Errorf("unknown line kind %q", line.Kind)
		}
		if err != nil {
			return stats, fmt.Errorf("line %d: %w", s.Ln(), err)
		}
	}
}

// Replay re-executes a trust-assertion journal and verifies it: the world
// is rebuilt from the header's recipe, events are validated and re-applied
// in journal order, each epoch marker re-captures a frozen view, and every
// query line is re-answered from its recorded epoch and compared
// bit-for-bit against the journaled TW. Any failure — a CRC-failing or torn
// line, an event IngestCtx would refuse, a sequence gap, event-count drift at
// an epoch, an epoch id that does not increase, an unknown epoch id, or a
// single differing bit — is a descriptive error. A nil error is the replay
// contract: every value the engine ever served is reproducible from the
// journal alone. (Replay is strict: it rejects even a torn final line; run
// Recover first to truncate a crashed journal's tail.)
func Replay(r io.Reader) (ReplayStats, error) {
	s := newJournalScanner(r)
	cfg, err := replayHeader(s)
	if err != nil {
		return ReplayStats{}, fmt.Errorf("serve: replay: %w", err)
	}
	w, err := buildWorld(cfg)
	if err != nil {
		return ReplayStats{}, fmt.Errorf("serve: replay: %w", err)
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
	capture := func(ep *epochLine) error {
		// A full capture: replay re-derives every epoch independently of
		// the one before.
		view, err := w.pop.RoundViewFrom(nil, workers, pool)
		if err != nil {
			return fmt.Errorf("epoch %d: %w", ep.ID, err)
		}
		memo := core.NewEdgeMemoPooled(view.TrustView, norm, workers, pool)
		memo.RequireModel(cfg.Model, w.setup.Universe.Tasks)
		epochs[ep.ID] = &epoch{id: ep.ID, view: view, memo: memo}
		return nil
	}
	verify := func(q *queryLine) error {
		ep, ok := epochs[q.Epoch]
		if !ok {
			return fmt.Errorf("query references unknown epoch %d", q.Epoch)
		}
		trustor, trustee := core.AgentID(q.Trustor), core.AgentID(q.Trustee)
		if err := w.checkIDs(trustor, trustee, q.Type); err != nil {
			return err
		}
		res, err := answer(w.searcher, ep.view, ep.memo, trustor, trustee, w.setup.Universe.Tasks[q.Type], cfg.Model)
		if err != nil {
			return err
		}
		bits := fmt.Sprintf("%016x", math.Float64bits(res.TW))
		if bits != q.TWBits || res.Found != q.Found || res.Direct != q.Direct {
			return fmt.Errorf(
				"trust(%d, %d, type %d) @ epoch %d diverged: got tw=%v bits=%s found=%v direct=%v, journal has tw=%v bits=%s found=%v direct=%v",
				q.Trustor, q.Trustee, q.Type, q.Epoch,
				res.TW, bits, res.Found, res.Direct, q.TW, q.TWBits, q.Found, q.Direct)
		}
		return nil
	}
	stats, err := walk(s, w, capture, verify)
	if err != nil {
		return stats, fmt.Errorf("serve: replay: %w", err)
	}
	return stats, nil
}
