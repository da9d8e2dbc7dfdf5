package serve

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"siot/internal/core"
	"siot/internal/task"
)

// answerScan is the candidate-scan oracle for answer: the direct channel,
// else the full FindViewModelInto search and a scan of its candidates for
// the trustee.
func answerScan(s *core.Searcher, view *core.RoundView, memo *core.EdgeMemo, sr *core.SearchResult, trustor, trustee core.AgentID, t task.Task, m core.TrustModel) TrustResult {
	if edge, ok := view.EdgeIndex(trustor, trustee); ok {
		if tw, ok := view.BestTW(edge, t); ok {
			return TrustResult{TW: tw, Found: true, Direct: true}
		}
	}
	s.FindViewModelInto(sr, view.TrustView, memo, trustor, t, m)
	for _, c := range sr.Candidates {
		if c.ID == trustee {
			return TrustResult{TW: c.TW, Found: true}
		}
	}
	return TrustResult{}
}

// sameAnswer reports whether two results agree bit for bit.
func sameAnswer(a, b TrustResult) bool {
	return math.Float64bits(a.TW) == math.Float64bits(b.TW) && a.Found == b.Found && a.Direct == b.Direct && a.Epoch == b.Epoch
}

// TestAnswerMatchesScan pins serve's point-query answer to the candidate
// scan it replaced, bit for bit, over multi-epoch ingest sessions for every
// registered model at search depths 1–4, with the epoch's memo. Without a
// memo only a direct answer is served; every other query fails with
// core.ErrNotRequired. Trustees are drawn from the trustor's neighbours,
// its neighbours' neighbours, and uniformly.
func TestAnswerMatchesScan(t *testing.T) {
	for _, name := range core.ModelNames() {
		t.Run(name, func(t *testing.T) {
			m := mustModel(t, name)
			e, err := New(Config{Net: "twitter", Seed: 7, Model: m, Seeded: true, EpochEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			r := rand.New(rand.NewPCG(23, 5))
			n, types := e.NumAgents(), e.TaskTypes()
			var sr core.SearchResult
			counts := map[string]int{}
			seen := map[uint64]bool{}
			for round := 0; round < 3; round++ {
				before := e.epochs.Load()
				for i := 0; i < 24; i++ {
					if err := e.IngestCtx(context.Background(), randomEvent(e, r)); err != nil {
						t.Fatalf("ingest: %v", err)
					}
				}
				for deadline := time.Now().Add(10 * time.Second); e.epochs.Load() == before; {
					if time.Now().After(deadline) {
						t.Fatal("no epoch published after ingest")
					}
					time.Sleep(time.Millisecond)
				}
				ref := e.handle.acquire()
				ep := ref.epoch()
				view := ep.view
				seen[ep.id] = true
				for k := 0; k < 12; k++ {
					trustor := core.AgentID(r.IntN(n))
					nbrs := e.Neighbors(trustor)
					var trustees []core.AgentID
					for j := 0; j < 6; j++ {
						trustees = append(trustees, core.AgentID(r.IntN(n)))
						if len(nbrs) > 0 {
							u := nbrs[r.IntN(len(nbrs))]
							trustees = append(trustees, u)
							if nn := e.Neighbors(u); len(nn) > 0 {
								trustees = append(trustees, nn[r.IntN(len(nn))])
							}
						}
					}
					for _, trustee := range trustees {
						tk := types[r.IntN(len(types))]
						for depth := 1; depth <= 4; depth++ {
							s := *e.world.searcher
							s.MaxDepth = depth
							want := answerScan(&s, view, ep.memo, &sr, trustor, trustee, tk, m)
							got, err := answer(&s, view, ep.memo, trustor, trustee, tk, m)
							if err != nil || !sameAnswer(got, want) {
								ref.release()
								t.Fatalf("epoch %d depth %d trust(%d, %d, type %d) = %+v, %v; scan %+v",
									ep.id, depth, trustor, trustee, tk.Type(), got, err, want)
							}
							switch {
							case want.Direct:
								counts["direct"]++
							case want.Found:
								counts["transitive"]++
							default:
								counts["not found"]++
							}
							// Without a memo only the direct channel answers.
							got, err = answer(&s, view, nil, trustor, trustee, tk, m)
							if want.Direct && (err != nil || !sameAnswer(got, want)) || !want.Direct && !errors.Is(err, core.ErrNotRequired) {
								ref.release()
								t.Fatalf("epoch %d depth %d trust(%d, %d, type %d) without a memo = %+v, %v; scan %+v",
									ep.id, depth, trustor, trustee, tk.Type(), got, err, want)
							}
						}
					}
				}
				ref.release()
			}
			if len(seen) < 2 || counts["direct"] == 0 || counts["transitive"] == 0 || counts["not found"] == 0 {
				t.Fatalf("session too narrow: %d epochs, answers %v", len(seen), counts)
			}
		})
	}
}
