package core

import (
	"math"

	"siot/internal/par"
	"siot/internal/rng"
	"siot/internal/task"
)

// hellinger-mf is a low-rank matrix-factorization trust model in the style
// of Aalibagi et al. (arXiv:1909.12432): the sparse trustor×trustee
// experience matrix — each observed directed edge rated by the mean
// trustworthiness of its records — is factored into rank-k latent vectors,
// and the reconstruction is blended with a Hellinger-distance similarity
// between the two endpoints' outgoing-rating distributions (the paper's
// remedy for sparse/cold-start cells: agents who rate alike trust alike).
//
// The model is epoch-trainable: TrainEpoch fits the factors against a
// frozen TrustView with deterministic rng.Split2 sub-streams for the
// initialization and double-buffered Jacobi gradient sweeps whose per-row
// sums run in fixed CSR order — so the trained table is bit-identical at
// every worker count. An edge with no experience records stays blocked
// (ok=false): factorization interpolates strength, not existence, of
// evidence, which keeps the honest-ring ≡ no-attack property exact.
const (
	hmfRank    = 4
	hmfSweeps  = 4
	hmfRate    = 0.10
	hmfReg     = 0.05
	hmfBuckets = 8
	// hmfMFWeight blends the factorization term against the Hellinger
	// similarity term.
	hmfMFWeight = 0.7
	// hmfSeed keys the deterministic parameter initialization. It is a
	// fixed constant, not the experiment seed: the model's parameters are
	// part of the model, so two runs over the same view train identically.
	hmfSeed = 0x48656c6c696e6765
)

type hellingerMF struct{}

func (hellingerMF) Name() string { return "hellinger-mf" }

func (hellingerMF) Spec() ModelSpec {
	return ModelSpec{Combine: combineMistrust, OmegaGated: true}
}

// HopTW is the untrained evidence-local lens: the mean trustworthiness of
// the edge's records. No search or memo path reads it: RequireModel has
// TrainEpoch fill the model's table instead.
func (hellingerMF) HopTW(ctx HopContext, recs []CompactRecord, t task.Task) (float64, bool) {
	return meanRecordTW(recs, ctx.Norm)
}

// meanRecordTW is an edge's hellinger-mf rating: the mean trustworthiness
// of its records, summed in record order. An edge with no records is
// unrated.
func meanRecordTW(recs []CompactRecord, norm Normalizer) (float64, bool) {
	if len(recs) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, r := range recs {
		sum += r.TW(norm)
	}
	return sum / float64(len(recs)), true
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// TrainEpoch fits the factorization against the frozen view and fills
// vals with every edge's trained hop value. The value is task-agnostic — the
// factorization models latent trustor/trustee dispositions, not per-task
// competence — and the blend of two [0, 1] terms is clamped, so values stay
// in [0, 1]. Determinism recipe: parameter init from per-(node, side)
// rng.Split2 sub-streams; each Jacobi sweep computes the new factors of
// every row from the OLD factor arrays only (double buffering), with
// per-row gradient sums accumulated in fixed CSR edge order — workers own
// disjoint rows, so the schedule cannot reorder any floating-point sum.
func (hellingerMF) TrainEpoch(view *TrustView, norm Normalizer, workers int, vals []float64) {
	n, ne := view.NumAgents(), view.NumEdges()
	adjOff, adjTo := view.adjOff, view.adjTo
	uFac := make([]float64, n*hmfRank)        // trustor factors
	vFac := make([]float64, n*hmfRank)        // trustee factors
	histSqrt := make([]float64, n*hmfBuckets) // sqrt of outgoing-rating histogram
	hasHist := make([]bool, n)                // node has at least one rated outgoing edge
	rated := make([]bool, ne)                 // edge had ≥1 record at capture
	holder := make([]AgentID, ne)             // CSR row (trustor) of each directed edge
	// Per-edge ratings: mean record trustworthiness, in parallel over
	// disjoint CSR rows.
	rating := make([]float64, ne)
	par.For(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for e := adjOff[u]; e < adjOff[u+1]; e++ {
				holder[e] = AgentID(u)
				rating[e], rated[e] = meanRecordTW(view.EdgeRecords(e), norm)
			}
		}
	})
	// Incoming CSR (per-trustee edge lists) for the V update, built
	// serially in ascending edge order so every in-list is deterministic.
	inOff := make([]int32, n+1)
	for _, v := range adjTo {
		inOff[v+1]++
	}
	for i := 0; i < n; i++ {
		inOff[i+1] += inOff[i]
	}
	inEdge := make([]int32, ne)
	cursor := make([]int32, n)
	copy(cursor, inOff[:n])
	for e, v := range adjTo {
		inEdge[cursor[v]] = int32(e)
		cursor[v]++
	}
	// Deterministic initialization in (0.3, 0.7): one sub-stream per
	// (node, side), independent of worker count and experiment seed.
	for i := 0; i < n; i++ {
		ur := rng.Split2(hmfSeed, "hellinger-mf-init", i, 0)
		vr := rng.Split2(hmfSeed, "hellinger-mf-init", i, 1)
		for k := 0; k < hmfRank; k++ {
			uFac[i*hmfRank+k] = 0.3 + float64(0.4*ur.Float64())
			vFac[i*hmfRank+k] = 0.3 + float64(0.4*vr.Float64())
		}
	}
	// Double-buffered Jacobi gradient sweeps: newU/newV are computed from
	// uFac/vFac only, then swapped in.
	newU := make([]float64, n*hmfRank)
	newV := make([]float64, n*hmfRank)
	for sweep := 0; sweep < hmfSweeps; sweep++ {
		par.For(n, workers, func(_, lo, hi int) {
			var g [hmfRank]float64
			for u := lo; u < hi; u++ {
				for k := range g {
					g[k] = 0
				}
				for e := adjOff[u]; e < adjOff[u+1]; e++ {
					if !rated[e] {
						continue
					}
					v := int(adjTo[e])
					pred := 0.0
					for k := 0; k < hmfRank; k++ {
						pred += float64(uFac[u*hmfRank+k] * vFac[v*hmfRank+k])
					}
					err := rating[e] - pred
					for k := 0; k < hmfRank; k++ {
						g[k] += float64(err * vFac[v*hmfRank+k])
					}
				}
				for k := 0; k < hmfRank; k++ {
					newU[u*hmfRank+k] = uFac[u*hmfRank+k] + float64(hmfRate*(g[k]-float64(hmfReg*uFac[u*hmfRank+k])))
				}
			}
		})
		par.For(n, workers, func(_, lo, hi int) {
			var g [hmfRank]float64
			for v := lo; v < hi; v++ {
				for k := range g {
					g[k] = 0
				}
				for ie := inOff[v]; ie < inOff[v+1]; ie++ {
					e := inEdge[ie]
					if !rated[e] {
						continue
					}
					u := int(holder[e])
					pred := 0.0
					for k := 0; k < hmfRank; k++ {
						pred += float64(uFac[u*hmfRank+k] * vFac[v*hmfRank+k])
					}
					err := rating[e] - pred
					for k := 0; k < hmfRank; k++ {
						g[k] += float64(err * uFac[u*hmfRank+k])
					}
				}
				for k := 0; k < hmfRank; k++ {
					newV[v*hmfRank+k] = vFac[v*hmfRank+k] + float64(hmfRate*(g[k]-float64(hmfReg*vFac[v*hmfRank+k])))
				}
			}
		})
		uFac, newU = newU, uFac
		vFac, newV = newV, vFac
	}
	// Outgoing-rating histograms (serial, O(ne)): the Hellinger term
	// compares how two agents distribute their trust.
	counts := make([]float64, n*hmfBuckets)
	totals := make([]float64, n)
	for e := 0; e < ne; e++ {
		if !rated[e] {
			continue
		}
		u := int(holder[e])
		b := int(rating[e] * hmfBuckets)
		if b >= hmfBuckets {
			b = hmfBuckets - 1
		}
		counts[u*hmfBuckets+b]++
		totals[u]++
	}
	for i := 0; i < n; i++ {
		if totals[i] == 0 {
			continue
		}
		hasHist[i] = true
		for b := 0; b < hmfBuckets; b++ {
			histSqrt[i*hmfBuckets+b] = math.Sqrt(counts[i*hmfBuckets+b] / totals[i])
		}
	}
	// Score every edge from the trained state.
	par.For(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for e := adjOff[u]; e < adjOff[u+1]; e++ {
				if !rated[e] {
					vals[e] = blocked
					continue
				}
				v := int(adjTo[e])
				dot := 0.0
				for k := 0; k < hmfRank; k++ {
					dot += float64(uFac[u*hmfRank+k] * vFac[v*hmfRank+k])
				}
				sim := 0.5 // neutral prior when either endpoint has no rating history
				if hasHist[u] && hasHist[v] {
					d2 := 0.0
					for b := 0; b < hmfBuckets; b++ {
						diff := histSqrt[u*hmfBuckets+b] - histSqrt[v*hmfBuckets+b]
						d2 += float64(diff * diff)
					}
					// Hellinger distance H = (1/√2)·‖√p−√q‖₂ ∈ [0, 1]; similarity 1−H.
					sim = 1 - math.Sqrt(d2/2)
				}
				vals[e] = clamp01(float64(hmfMFWeight*clamp01(dot)) + float64((1-hmfMFWeight)*sim))
			}
		}
	})
}

func init() { RegisterModel(hellingerMF{}) }
