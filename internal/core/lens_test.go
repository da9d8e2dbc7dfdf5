package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"siot/internal/task"
)

// edgeOracle evaluates directed edge e of view for t with no memo table:
// it reads trained, the table a direct TrainEpoch filled, when the model is
// trained (trained non-nil), else the model's HopTW on the edge's captured
// records.
func edgeOracle(mdl TrustModel, trained []float64, ctx HopContext, view *TrustView, e int32, t task.Task) (float64, bool) {
	if trained != nil {
		return trained[e], !math.IsNaN(trained[e])
	}
	return mdl.HopTW(ctx, view.EdgeRecords(e), t)
}

// TestRequireLensMatchesOracle pins the single-edge lens, for every
// registered model on every edge of randomized fixtures, bit for bit to
// the on-the-spot evaluation (blocked in both, or the same bits) on full
// tasks — multi-characteristic tasks under the PerCharacteristic model
// included, where the lens sums the per-characteristic tables — and on
// every characteristic's unit task. It also pins the lens to the search:
// a depth-1 TrustInto with ω = 0 and no mask answers the lens's value for
// every edge, except that an ungated model never mints a hop of exactly 0.
func TestRequireLensMatchesOracle(t *testing.T) {
	s := &Searcher{MaxDepth: 1}
	var admitted, blocked, multi, zeroUngated int
	for seed := uint64(1); seed <= 3; seed++ {
		f := newRoundFixture(rand.New(rand.NewPCG(seed, 0xf1)), 24, 3*24)
		view := f.captureView(t)
		norm := f.stores[0].Config().Norm
		ctx := HopContext{Tasks: view.Tasks(), Norm: norm}
		tasks := f.searchProbes()
		seen := map[task.Characteristic]bool{}
		for _, tk := range f.searchProbes() {
			for _, c := range tk.Characteristics() {
				if !seen[c] {
					seen[c] = true
					tasks = append(tasks, unitTask(c))
				}
			}
		}
		memo := NewEdgeMemoPooled(view, norm, 2, nil)
		for _, m := range registeredModels(t) {
			var trained []float64
			if tr, ok := m.(EpochTrainable); ok {
				trained = make([]float64, view.NumEdges())
				tr.TrainEpoch(view, norm, 1, trained)
			}
			for _, tk := range tasks {
				lens := memo.RequireLens(m, tk)
				for u := 0; u < f.n; u++ {
					x := AgentID(u)
					for _, y := range view.Neighbors(x) {
						e, _ := view.EdgeIndex(x, y)
						got, gotOK := lens(e)
						want, wantOK := edgeOracle(m, trained, ctx, view, e, tk)
						if gotOK != wantOK || gotOK && math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("seed %d %s task %v edge %d->%d: lens (%v, %v), oracle (%v, %v)",
								seed, m.Name(), tk, x, y, got, gotOK, want, wantOK)
						}
						switch {
						case !gotOK:
							blocked++
						case m.Spec().PerCharacteristic && tk.NumCharacteristics() > 1:
							multi++
							fallthrough
						default:
							admitted++
						}
						tw, found, err := s.TrustInto(view, memo, x, y, tk, m)
						if err != nil {
							t.Fatal(err)
						}
						if gotOK && got == 0 && !m.Spec().OmegaGated {
							if found {
								t.Fatalf("seed %d %s task %v edge %d->%d: ungated hop 0 minted as %v", seed, m.Name(), tk, x, y, tw)
							}
							zeroUngated++
							continue
						}
						if !trustIntoEqual(tw, found, got, gotOK) {
							t.Fatalf("seed %d %s task %v edge %d->%d: TrustInto (%v, %v), lens (%v, %v)",
								seed, m.Name(), tk, x, y, tw, found, got, gotOK)
						}
					}
				}
			}
		}
	}
	if admitted == 0 || blocked == 0 || multi == 0 {
		t.Fatalf("fixtures too narrow: %d admitted (%d multi-characteristic per-characteristic), %d blocked", admitted, multi, blocked)
	}
	t.Logf("%d admitted (%d multi-characteristic), %d blocked, %d ungated zero hops", admitted, multi, blocked, zeroUngated)
}
