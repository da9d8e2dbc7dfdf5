package core

import (
	"cmp"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"siot/internal/task"
)

// compactFixture is one random record set in both forms: the fat reference
// records and their compact twins interned into one catalog.
type compactFixture struct {
	cat     *task.Catalog
	fat     []Record
	compact []CompactRecord
	tasks   []task.Task // catalog snapshot
}

// searchRecord is the fat-record oracle of searchCompact: it locates the
// record for typ in a sorted-by-type record slice.
func searchRecord(recs []Record, typ task.Type) (int, bool) {
	return slices.BinarySearchFunc(recs, typ, func(r Record, t task.Type) int {
		return cmp.Compare(r.Task.Type(), t)
	})
}

func buildCompactFixture(seed uint64, nRecs int) *compactFixture {
	r := rand.New(rand.NewPCG(seed, 0x7a))
	universe := []task.Task{
		task.Uniform(1, task.CharGPS),
		task.Uniform(2, task.CharImage),
		task.MustNew(3, map[task.Characteristic]float64{task.CharGPS: 0.3, task.CharCompute: 0.7}),
		task.MustNew(4, map[task.Characteristic]float64{task.CharCompute: 0.5, task.CharStorage: 0.5}),
		task.Uniform(5, task.CharImage, task.CharVelocity),
	}
	f := &compactFixture{cat: task.NewCatalog()}
	for i := 0; i < nRecs && i < len(universe); i++ {
		tk := universe[i] // distinct types, ascending — keeps the set sorted
		s := r.Float64()
		exp := Expectation{S: s, G: r.Float64(), D: r.Float64(), C: 0.2 * r.Float64()}
		f.fat = append(f.fat, Record{Task: tk, Exp: exp, Count: i})
		f.compact = append(f.compact, CompactRecord{Ref: f.cat.Intern(tk), Exp: exp, Count: uint32(i)})
	}
	f.tasks = f.cat.Tasks()
	return f
}

// TestCompactMatchesFatReference pins the acceptance contract of the compact
// arena form: every trust computation over CompactRecord slices —
// per-characteristic averaging (eq. 4's inner fraction), full inference
// (eqs. 2–4), the per-hop search value, and the binary search — returns
// results bit-identical to the fat-Record reference implementation it
// replaced. The floats flow through the same expressions; only the task
// resolution differs.
func TestCompactMatchesFatReference(t *testing.T) {
	probes := []task.Task{
		task.Uniform(1, task.CharGPS),
		task.Uniform(7, task.CharGPS, task.CharCompute),
		task.MustNew(8, map[task.Characteristic]float64{task.CharImage: 0.9, task.CharStorage: 0.1}),
		task.Uniform(9, task.CharAudio), // uncovered
	}
	chars := []task.Characteristic{
		task.CharGPS, task.CharImage, task.CharCompute, task.CharStorage, task.CharAudio,
	}
	norm := UnitNormalizer()
	s := &mapSearcher{Norm: norm}
	for seed := uint64(1); seed <= 8; seed++ {
		for size := 0; size <= 5; size++ {
			f := buildCompactFixture(seed, size)
			for _, c := range chars {
				fatV, fatOK := CharTW(f.fat, c, norm)
				cmpV, cmpOK := charTWCompact(f.tasks, f.compact, c, norm)
				if fatV != cmpV || fatOK != cmpOK {
					t.Fatalf("seed %d size %d: CharTW(%d) compact (%v, %v) != fat (%v, %v)",
						seed, size, c, cmpV, cmpOK, fatV, fatOK)
				}
			}
			for _, tk := range probes {
				fatV, fatOK := InferFromRecords(f.fat, tk, norm)
				cmpV, cmpOK := inferFromCompact(f.tasks, f.compact, tk, norm)
				if fatV != cmpV || fatOK != cmpOK {
					t.Fatalf("seed %d size %d: InferTW(task %d) compact (%v, %v) != fat (%v, %v)",
						seed, size, tk.Type(), cmpV, cmpOK, fatV, fatOK)
				}
				for _, m := range []TrustModel{Traditional, Conservative} {
					fatV, fatOK := s.hopTW(f.fat, tk, m)
					cmpV, cmpOK := m.HopTW(HopContext{Tasks: f.tasks, Norm: norm}, f.compact, tk)
					if fatV != cmpV || fatOK != cmpOK {
						t.Fatalf("seed %d size %d: hopTW(task %d, %s) compact (%v, %v) != fat (%v, %v)",
							seed, size, tk.Type(), m.Name(), cmpV, cmpOK, fatV, fatOK)
					}
				}
				fatI, fatOK := searchRecord(f.fat, tk.Type())
				cmpI, cmpOK := searchCompact(f.tasks, f.compact, tk.Type())
				if fatI != cmpI || fatOK != cmpOK {
					t.Fatalf("seed %d size %d: search(type %d) compact (%d, %v) != fat (%d, %v)",
						seed, size, tk.Type(), cmpI, cmpOK, fatI, fatOK)
				}
			}
		}
	}
}

// TestMaterializeRoundTrip: widening a compact record recovers the exact fat
// record, sharing the catalog's task slices.
func TestMaterializeRoundTrip(t *testing.T) {
	f := buildCompactFixture(3, 5)
	for i := range f.fat {
		got := materialize(f.tasks, f.compact[i])
		if got.Exp != f.fat[i].Exp || got.Count != f.fat[i].Count || !got.Task.Equal(f.fat[i].Task) {
			t.Fatalf("record %d materialized to %+v, want %+v", i, got, f.fat[i])
		}
	}
}

// overflowSource is a synthetic RoundSource whose per-edge record counts
// sum past the int32 arena offset space without ever allocating records.
func overflowSource(perEdge int) RoundSource {
	return RoundSource{
		Catalog: task.NewCatalog(),
		Count:   func(holder, about AgentID) int { return perEdge },
		Append: func(holder, about AgentID, buf []CompactRecord) []CompactRecord {
			panic("fill pass must not run after an overflow")
		},
		Version: func(AgentID) uint64 { return 0 },
		Usage:   func(_, _ AgentID) UsageLog { return UsageLog{} },
	}
}

// TestCaptureArenaOverflow: a capture whose record total exceeds the int32
// offset space reports ErrArenaOverflow instead of wrapping the prefix sum —
// the fix for the silent-truncation class. The error surfaces before the
// fill pass, so no multi-GB arena is ever allocated.
func TestCaptureArenaOverflow(t *testing.T) {
	// 3 agents in a directed triangle, 6 edges; 400M records per edge puts
	// the total at 2.4e9 > MaxInt32.
	adjOff := []int32{0, 2, 4, 6}
	adjTo := []AgentID{1, 2, 0, 2, 0, 1}
	v, err := CaptureRoundView(adjOff, adjTo, overflowSource(400_000_000), UnitNormalizer(), 1, nil, nil)
	if !errors.Is(err, ErrArenaOverflow) {
		t.Fatalf("record-only capture error = %v, want ErrArenaOverflow", err)
	}
	if v != nil {
		t.Fatal("overflowing capture returned a non-nil view")
	}
	src := overflowSource(400_000_000)
	src.Usage = func(holder, about AgentID) UsageLog { panic("usage pass must not run") }
	rv, err := CaptureRoundView(adjOff, adjTo, src, UnitNormalizer(), 1, nil, nil)
	if !errors.Is(err, ErrArenaOverflow) {
		t.Fatalf("CaptureRoundView error = %v, want ErrArenaOverflow", err)
	}
	if rv != nil {
		t.Fatal("overflowing round capture returned a non-nil view")
	}
}

// TestCaptureBelowOverflowSucceeds: the guard triggers on genuine overflow
// only — a large-but-legal capture still goes through the checked path.
func TestCaptureBelowOverflowSucceeds(t *testing.T) {
	cat := task.NewCatalog()
	tk := task.Uniform(1, task.CharGPS)
	ref := cat.Intern(tk)
	adjOff := []int32{0, 1, 2}
	adjTo := []AgentID{1, 0}
	v := captureTrustView(t, adjOff, adjTo, RoundSource{
		Catalog: cat,
		Count:   func(holder, about AgentID) int { return 2 },
		Append: func(holder, about AgentID, buf []CompactRecord) []CompactRecord {
			return append(buf, CompactRecord{Ref: ref}, CompactRecord{Ref: ref, Count: 1})
		},
		Version: func(AgentID) uint64 { return 0 },
		Usage:   func(_, _ AgentID) UsageLog { return UsageLog{} },
	}, 1)
	if got := len(v.EdgeRecords(0)); got != 2 {
		t.Fatalf("edge 0 holds %d records, want 2", got)
	}
}
