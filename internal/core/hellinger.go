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
// sums run in fixed CSR order — so the trained scorer is bit-identical at
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
	return ModelSpec{Combine: CombineMistrust, OmegaGated: true}
}

// HopTW is the untrained evidence-local lens: the mean trustworthiness of
// the edge's records. No search or memo path reads it: RequireModel builds
// the tables from the scorer it trains on the epoch first.
func (hellingerMF) HopTW(ctx HopContext, recs []CompactRecord, t task.Task) (float64, bool) {
	if len(recs) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, r := range recs {
		sum += r.TW(ctx.Norm)
	}
	return sum / float64(len(recs)), true
}

// hellingerScorer is the trained state: latent factors, per-node sqrt
// rating histograms, and the per-edge rating/holder arrays. Immutable
// after training.
type hellingerScorer struct {
	uFac     []float64 // n×hmfRank trustor factors
	vFac     []float64 // n×hmfRank trustee factors
	histSqrt []float64 // n×hmfBuckets, sqrt of outgoing-rating histogram
	hasHist  []bool    // node has at least one rated outgoing edge
	rated    []bool    // edge had ≥1 record at capture
	holder   []AgentID // CSR row (trustor) of each directed edge
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

// EdgeTW scores a directed edge from the trained state. The value is
// task-agnostic — the factorization models latent trustor/trustee
// dispositions, not per-task competence — and the blend of two [0, 1]
// terms is clamped, so outputs stay in [0, 1].
func (s *hellingerScorer) EdgeTW(view *TrustView, e int32, t task.Task) (float64, bool) {
	if !s.rated[e] {
		return 0, false
	}
	u, v := s.holder[e], view.adjTo[e]
	dot := 0.0
	for k := 0; k < hmfRank; k++ {
		dot += s.uFac[int(u)*hmfRank+k] * s.vFac[int(v)*hmfRank+k]
	}
	sim := 0.5 // neutral prior when either endpoint has no rating history
	if s.hasHist[u] && s.hasHist[v] {
		d2 := 0.0
		for b := 0; b < hmfBuckets; b++ {
			diff := s.histSqrt[int(u)*hmfBuckets+b] - s.histSqrt[int(v)*hmfBuckets+b]
			d2 += diff * diff
		}
		// Hellinger distance H = (1/√2)·‖√p−√q‖₂ ∈ [0, 1]; similarity 1−H.
		sim = 1 - math.Sqrt(d2/2)
	}
	return clamp01(hmfMFWeight*clamp01(dot) + (1-hmfMFWeight)*sim), true
}

// TrainEpoch fits the factorization against the frozen view. Determinism
// recipe: parameter init from per-(node, side) rng.Split2 sub-streams;
// each Jacobi sweep computes the new factors of every row from the OLD
// factor arrays only (double buffering), with per-row gradient sums
// accumulated in fixed CSR edge order — workers own disjoint rows, so the
// schedule cannot reorder any floating-point sum.
func (hellingerMF) TrainEpoch(view *TrustView, norm Normalizer, workers int) EdgeScorer {
	n, ne := view.NumAgents(), view.NumEdges()
	adjOff, adjTo := view.adjOff, view.adjTo
	s := &hellingerScorer{
		uFac:     make([]float64, n*hmfRank),
		vFac:     make([]float64, n*hmfRank),
		histSqrt: make([]float64, n*hmfBuckets),
		hasHist:  make([]bool, n),
		rated:    make([]bool, ne),
		holder:   make([]AgentID, ne),
	}
	// Per-edge ratings: mean record trustworthiness, in parallel over
	// disjoint CSR rows.
	rating := make([]float64, ne)
	par.For(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for e := adjOff[u]; e < adjOff[u+1]; e++ {
				s.holder[e] = AgentID(u)
				recs := view.EdgeRecords(e)
				if len(recs) == 0 {
					continue
				}
				sum := 0.0
				for _, r := range recs {
					sum += r.TW(norm)
				}
				rating[e] = sum / float64(len(recs))
				s.rated[e] = true
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
			s.uFac[i*hmfRank+k] = 0.3 + 0.4*ur.Float64()
			s.vFac[i*hmfRank+k] = 0.3 + 0.4*vr.Float64()
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
					if !s.rated[e] {
						continue
					}
					v := int(adjTo[e])
					pred := 0.0
					for k := 0; k < hmfRank; k++ {
						pred += s.uFac[u*hmfRank+k] * s.vFac[v*hmfRank+k]
					}
					err := rating[e] - pred
					for k := 0; k < hmfRank; k++ {
						g[k] += err * s.vFac[v*hmfRank+k]
					}
				}
				for k := 0; k < hmfRank; k++ {
					newU[u*hmfRank+k] = s.uFac[u*hmfRank+k] + hmfRate*(g[k]-hmfReg*s.uFac[u*hmfRank+k])
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
					if !s.rated[e] {
						continue
					}
					u := int(s.holder[e])
					pred := 0.0
					for k := 0; k < hmfRank; k++ {
						pred += s.uFac[u*hmfRank+k] * s.vFac[v*hmfRank+k]
					}
					err := rating[e] - pred
					for k := 0; k < hmfRank; k++ {
						g[k] += err * s.uFac[u*hmfRank+k]
					}
				}
				for k := 0; k < hmfRank; k++ {
					newV[v*hmfRank+k] = s.vFac[v*hmfRank+k] + hmfRate*(g[k]-hmfReg*s.vFac[v*hmfRank+k])
				}
			}
		})
		s.uFac, newU = newU, s.uFac
		s.vFac, newV = newV, s.vFac
	}
	// Outgoing-rating histograms (serial, O(ne)): the Hellinger term
	// compares how two agents distribute their trust.
	counts := make([]float64, n*hmfBuckets)
	totals := make([]float64, n)
	for e := 0; e < ne; e++ {
		if !s.rated[e] {
			continue
		}
		u := int(s.holder[e])
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
		s.hasHist[i] = true
		for b := 0; b < hmfBuckets; b++ {
			s.histSqrt[i*hmfBuckets+b] = math.Sqrt(counts[i*hmfBuckets+b] / totals[i])
		}
	}
	return s
}

func init() { RegisterModel(hellingerMF{}) }
