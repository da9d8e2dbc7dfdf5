package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"siot/internal/task"
)

// scanTrust is the candidate-scan answer TrustInto must reproduce: the value
// trustee holds among the candidates of a full FindViewModelInto search.
func scanTrust(res *SearchResult, trustee AgentID) (float64, bool) {
	for _, c := range res.Candidates {
		if c.ID == trustee {
			return c.TW, true
		}
	}
	return 0, false
}

// registeredModels resolves every registered model name.
func registeredModels(tb testing.TB) []TrustModel {
	tb.Helper()
	var models []TrustModel
	for _, name := range ModelNames() {
		models = append(models, mustParseModel(tb, name))
	}
	return models
}

// quantizedModel rounds a model's hops to quarter steps, so hop values land
// exactly on ω thresholds and every ≥ admission rule is exercised at a tie.
type quantizedModel struct{ TrustModel }

func (q quantizedModel) Name() string { return "quantized-" + q.TrustModel.Name() }
func (q quantizedModel) HopTW(ctx HopContext, recs []CompactRecord, t task.Task) (float64, bool) {
	v, ok := q.TrustModel.HopTW(ctx, recs, t)
	return math.Round(4*v) / 4, ok
}

// trustIntoEqual reports whether a point answer is bit-identical to the
// scan answer.
func trustIntoEqual(gotTW float64, gotOK bool, wantTW float64, wantOK bool) bool {
	return gotOK == wantOK && math.Float64bits(gotTW) == math.Float64bits(wantTW)
}

// TestTrustIntoMatchesScan pins the point query to the candidate scan bit
// for bit (TW bits and found flag) for every (trustor, trustee, task) on
// randomized fixtures — dense ones and sparse ones with unreachable agents —
// at depths 1–4, under every registered model plus two whose hops hit the
// ω thresholds exactly, with and without a candidate mask, and across ω
// gating (rotated over seeds and depths). Trustees cover the trustor
// itself, neighbours with and without a record for the task, and agents at
// every distance. Without a memo both entry points refuse every query.
func TestTrustIntoMatchesScan(t *testing.T) {
	models := append(registeredModels(t),
		quantizedModel{Conservative}, quantizedModel{Aggressive})
	omegas := [][2]float64{{0, 0}, {0.3, 0.5}, {0.6, 0.2}, {0.5, 0.25}}
	var found, missed, direct, deep int
	for seed := uint64(1); seed <= 4; seed++ {
		links := 3 * 24
		if seed%2 == 0 {
			links = 20 // sparse: several components, so unreachable trustees
		}
		f := newRoundFixture(rand.New(rand.NewPCG(seed, 0xf1)), 24, links)
		view := f.captureView(t)
		probes := f.searchProbes()
		norm := f.stores[0].Config().Norm
		memo := NewEdgeMemoPooled(view, norm, 2, nil)
		for _, m := range models {
			memo.RequireModel(m, probes)
		}
		for depth := 1; depth <= 4; depth++ {
			om := omegas[(int(seed)+depth)%len(omegas)]
			for _, mask := range [][]bool{nil, randomMask(f.n, seed+uint64(depth))} {
				s := &Searcher{MaxDepth: depth, Omega1: om[0], Omega2: om[1], CandidateMask: mask}
				for _, m := range models {
					var res SearchResult
					for x := 0; x < f.n; x++ {
						for _, tk := range probes {
							mustFind(t, s, &res, view, memo, AgentID(x), tk, m)
							for y := 0; y < f.n; y++ {
								trustor, trustee := AgentID(x), AgentID(y)
								wantTW, wantOK := scanTrust(&res, trustee)
								gotTW, gotOK, err := s.TrustInto(view, memo, trustor, trustee, tk, m)
								if err != nil || !trustIntoEqual(gotTW, gotOK, wantTW, wantOK) {
									t.Fatalf("seed=%d depth=%d ω=%v mask=%v %s trust(%d, %d, task %d) = (%v, %v, %v), scan (%v, %v)",
										seed, depth, om, mask != nil, m.Name(), x, y, tk.Type(), gotTW, gotOK, err, wantTW, wantOK)
								}
								if !wantOK {
									missed++
									continue
								}
								found++
								if _, nbr := view.EdgeIndex(trustor, trustee); nbr {
									direct++
								} else {
									deep++
								}
							}
							label := fmt.Sprintf("seed=%d depth=%d mask=%v %s trustor=%d task=%d (no memo)",
								seed, depth, mask != nil, m.Name(), x, tk.Type())
							assertNotRequired(t, label, s, view, nil, AgentID(x), AgentID((x+1)%f.n), tk, m)
						}
					}
				}
			}
		}
	}
	if found == 0 || missed == 0 || direct == 0 || deep == 0 {
		t.Fatalf("fixtures too narrow: %d found (%d neighbours, %d farther), %d not found", found, direct, deep, missed)
	}
}

// FuzzTrustInto checks TrustInto against the candidate scan on one small
// fixed fixture for arbitrary (trustor, trustee, task, depth, model, mask)
// choices; without the memo, both entry points must refuse the query.
func FuzzTrustInto(f *testing.F) {
	fx := newRoundFixture(rand.New(rand.NewPCG(7, 0xf1)), 16, 40)
	view := captureTrustView(f, fx.adjOff, fx.adjTo, fx.source(), 1)
	probes := fx.searchProbes()
	norm := fx.stores[0].Config().Norm
	models := registeredModels(f)
	memo := NewEdgeMemoPooled(view, norm, 1, nil)
	for _, m := range models {
		memo.RequireModel(m, probes)
	}
	f.Add(uint8(0), uint8(5), uint8(0), uint8(2), uint8(0), uint64(0), true)
	f.Add(uint8(3), uint8(3), uint8(2), uint8(1), uint8(1), uint64(9), false)
	f.Add(uint8(1), uint8(14), uint8(4), uint8(4), uint8(3), uint64(2), true)
	f.Fuzz(func(t *testing.T, trustor, trustee, taskIdx, depth, modelIdx uint8, maskSeed uint64, useMemo bool) {
		x, y := AgentID(int(trustor)%fx.n), AgentID(int(trustee)%fx.n)
		tk := probes[int(taskIdx)%len(probes)]
		m := models[int(modelIdx)%len(models)]
		var mask []bool
		if maskSeed != 0 {
			mask = randomMask(fx.n, maskSeed)
		}
		s := &Searcher{MaxDepth: 1 + int(depth)%4, Omega1: 0.3, Omega2: 0.5, CandidateMask: mask}
		if !useMemo {
			assertNotRequired(t, "no memo", s, view, nil, x, y, tk, m)
			return
		}
		var res SearchResult
		mustFind(t, s, &res, view, memo, x, tk, m)
		wantTW, wantOK := scanTrust(&res, y)
		gotTW, gotOK, err := s.TrustInto(view, memo, x, y, tk, m)
		if err != nil || !trustIntoEqual(gotTW, gotOK, wantTW, wantOK) {
			t.Fatalf("depth=%d mask=%v %s trust(%d, %d, task %d) = (%v, %v, %v), scan (%v, %v)",
				s.MaxDepth, mask != nil, m.Name(), x, y, tk.Type(), gotTW, gotOK, err, wantTW, wantOK)
		}
	})
}
