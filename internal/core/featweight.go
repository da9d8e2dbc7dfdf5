package core

import (
	"siot/internal/task"
)

// feature-weighted is an evidence-feature trust model in the style of
// Sagar et al. (arXiv:2310.19173): instead of the paper's all-or-nothing
// characteristic coverage rule (eq. 8), each hop extracts a small feature
// vector from the edge's records — per-characteristic competence, coverage
// fraction, and interaction-count saturation — and combines it with a
// fixed learned weighting. The model tolerates partial coverage (a hop
// with one matching characteristic still scores, discounted by the
// coverage feature), so it explores where the conservative policy blocks.
//
// The model is stateless and evidence-local: every term is a weighted
// average or a saturating ratio of [0, 1] quantities, so outputs stay in
// [0, 1] with no clamp ever active in practice (clamped anyway for
// robustness against pathological normalizers).
const (
	// fwWeightCompetence/Coverage/Count are the fixed combination weights
	// (they sum to 1).
	fwWeightCompetence = 0.62
	fwWeightCoverage   = 0.20
	fwWeightCount      = 0.18
	// fwCountPrior is the pseudo-count of the saturation feature
	// n/(n+prior): ~3 interactions reach half confidence.
	fwCountPrior = 3.0
)

type featureWeighted struct{}

func (featureWeighted) Name() string { return "feature-weighted" }

func (featureWeighted) Spec() ModelSpec {
	return ModelSpec{Combine: combineMistrust, OmegaGated: true}
}

// HopTW extracts the hop's features and applies the fixed weighting. The
// hop is admissible when at least one characteristic of the task is
// covered by the records (full coverage raises the coverage feature to 1).
func (featureWeighted) HopTW(ctx HopContext, recs []CompactRecord, t task.Task) (float64, bool) {
	if len(recs) == 0 {
		return 0, false
	}
	coveredW, weighted := 0.0, 0.0
	for _, c := range t.Characteristics() {
		est, ok := charTWCompact(ctx.Tasks, recs, c, ctx.Norm)
		if !ok {
			continue
		}
		w := t.Weight(c)
		coveredW += w
		weighted += float64(w * est)
	}
	if coveredW == 0 {
		return 0, false
	}
	count := 0.0
	for _, r := range recs {
		count += float64(r.Count)
	}
	competence := weighted / coveredW
	coverage := clamp01(coveredW) // task weights sum to 1, so this is the covered fraction
	saturation := count / (count + fwCountPrior)
	return clamp01(float64(fwWeightCompetence*competence) + float64(fwWeightCoverage*coverage) + float64(fwWeightCount*saturation)), true
}

func init() { RegisterModel(featureWeighted{}) }
