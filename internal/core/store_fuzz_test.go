package core

import (
	"maps"
	"slices"
	"testing"

	"siot/internal/task"
)

// storeOracle is the reference model of a Store: a map of maps from trustee
// to task type to record, plus the usage logs, updated the obvious way.
type storeOracle struct {
	cfg   UpdateConfig
	recs  map[AgentID]map[task.Type]Record
	usage map[AgentID]UsageLog
}

func newStoreOracle(cfg UpdateConfig) *storeOracle {
	return &storeOracle{cfg: cfg, recs: map[AgentID]map[task.Type]Record{}, usage: map[AgentID]UsageLog{}}
}

func (o *storeOracle) row(trustee AgentID) map[task.Type]Record {
	r := o.recs[trustee]
	if r == nil {
		r = map[task.Type]Record{}
		o.recs[trustee] = r
	}
	return r
}

func (o *storeOracle) observe(trustee AgentID, t task.Task, out Outcome, ectx EnvContext) {
	row := o.row(trustee)
	r, ok := row[t.Type()]
	if !ok {
		r = Record{Task: t, Exp: o.cfg.Init}
	}
	r.Exp = Update(r.Exp, out, ectx, o.cfg)
	r.Count++
	row[t.Type()] = r
}

func (o *storeOracle) seed(trustee AgentID, t task.Task, exp Expectation) {
	o.row(trustee)[t.Type()] = Record{Task: t, Exp: exp}
}

func (o *storeOracle) forget(about AgentID) {
	delete(o.recs, about)
	delete(o.usage, about)
}

// records returns the oracle's records about trustee ordered by task type.
func (o *storeOracle) records(trustee AgentID) []Record {
	row := o.recs[trustee]
	var out []Record
	for _, typ := range slices.Sorted(maps.Keys(row)) {
		out = append(out, row[typ])
	}
	return out
}

func (o *storeOracle) trustees() []AgentID {
	var out []AgentID
	for id, row := range o.recs {
		if len(row) > 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Store-op fuzzing alphabet: trustees and task types are drawn small, so
// random op sequences collide on keys and rows often.
const (
	fuzzTrustees = 16
	fuzzTypes    = 8
)

func sameRecord(a, b Record) bool {
	return a.Task.Type() == b.Task.Type() && a.Exp == b.Exp && a.Count == b.Count
}

// checkStoreAgainst compares every read of s with the oracle.
func checkStoreAgainst(t *testing.T, step int, s *Store, o *storeOracle) {
	t.Helper()
	total := 0
	var compact []CompactRecord
	for id := AgentID(0); id < fuzzTrustees; id++ {
		want := o.records(id)
		total += len(want)
		got := s.Records(id)
		if len(got) != len(want) {
			t.Fatalf("step %d: Records(%d) has %d records, oracle %d", step, id, len(got), len(want))
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("step %d: Records(%d)[%d] = %+v, oracle %+v", step, id, i, got[i], want[i])
			}
		}
		if n := s.RecordCount(id); n != len(want) {
			t.Fatalf("step %d: RecordCount(%d) = %d, oracle %d", step, id, n, len(want))
		}
		compact = s.AppendCompact(id, s.Catalog(), compact[:0])
		if len(compact) != len(want) {
			t.Fatalf("step %d: AppendCompact(%d) has %d records, oracle %d", step, id, len(compact), len(want))
		}
		tasks := s.Catalog().Tasks()
		for i, cr := range compact {
			if !sameRecord(materialize(tasks, cr), want[i]) {
				t.Fatalf("step %d: AppendCompact(%d)[%d] = %+v, oracle %+v", step, id, i, cr, want[i])
			}
		}
		for typ := task.Type(0); typ < fuzzTypes; typ++ {
			got, ok := s.Record(id, typ)
			wantRec, wantOK := o.recs[id][typ]
			if ok != wantOK || ok && !sameRecord(got, wantRec) {
				t.Fatalf("step %d: Record(%d, %d) = (%+v, %v), oracle (%+v, %v)", step, id, typ, got, ok, wantRec, wantOK)
			}
			wantExp := o.cfg.Init
			if wantOK {
				wantExp = wantRec.Exp
			}
			if got := s.Expectation(id, typ); got != wantExp {
				t.Fatalf("step %d: Expectation(%d, %d) = %+v, oracle %+v", step, id, typ, got, wantExp)
			}
		}
		if got, want := s.Usage(id), o.usage[id]; got != want {
			t.Fatalf("step %d: Usage(%d) = %+v, oracle %+v", step, id, got, want)
		}
	}
	if got, want := s.Trustees(), o.trustees(); !slices.Equal(got, want) {
		t.Fatalf("step %d: Trustees() = %v, oracle %v", step, got, want)
	}
	if n := s.NumRecords(); n != total {
		t.Fatalf("step %d: NumRecords() = %d, oracle %d", step, n, total)
	}
}

// FuzzStoreOps decodes bytes into a sequence of Observe, Seed, SeedSorted,
// ObserveUsage and Forget calls over a small key space, and after every op
// compares each store read with a map-of-maps oracle. Forget interleaved
// with inserts across trustees exercises the offset arithmetic of the
// store's one sorted record slice.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 3, 2, 200, 1, 5, 1, 40, 4, 3, 0, 5, 2, 0, 7})
	f.Add([]byte{2, 0x83, 1, 1, 10, 2, 5, 20, 9, 0, 30, 4, 9, 0, 9, 3, 99})
	f.Add([]byte{1, 15, 7, 1, 1, 0, 0, 2, 4, 0, 0, 7, 7, 7, 3, 15, 1})
	f.Add([]byte{2, 0x04, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 4, 5, 0, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		tasks := make([]task.Task, fuzzTypes)
		for i := range tasks {
			tasks[i] = seedTestTask(i)
		}
		cfg := DefaultUpdateConfig()
		s, o := NewStore(99, cfg), newStoreOracle(cfg)
		for step := 0; len(data) > 0; step++ {
			switch next() % 5 {
			case 0:
				id, tk, v := AgentID(next()%fuzzTrustees), tasks[next()%fuzzTypes], float64(next())/255
				out := Outcome{Success: v > 0.3, Gain: v, Damage: 1 - v, Cost: v / 4}
				s.Observe(id, tk, out, PerfectEnv())
				o.observe(id, tk, out, PerfectEnv())
			case 1:
				id, tk, v := AgentID(next()%fuzzTrustees), tasks[next()%fuzzTypes], float64(next())/255
				exp := Expectation{S: v, G: v, D: 1 - v, C: v / 2}
				s.Seed(id, tk, exp)
				o.seed(id, tk, exp)
			case 2:
				// The low bits size the batch; the high bit asks for it to be
				// sorted and deduplicated, so both accepted and rejected
				// batches occur.
				hdr := next()
				batch := make([]SeedRecord, hdr&15)
				for i := range batch {
					v := float64(next()) / 255
					batch[i] = SeedRecord{
						Trustee: AgentID(next() % fuzzTrustees),
						Task:    tasks[next()%fuzzTypes],
						Exp:     Expectation{S: v, G: v, D: 1 - v},
					}
				}
				if hdr&0x80 != 0 {
					slices.SortStableFunc(batch, compareSeedRecords)
					batch = slices.CompactFunc(batch, func(a, b SeedRecord) bool { return compareSeedRecords(a, b) == 0 })
				}
				sorted := true
				for i := 1; i < len(batch); i++ {
					sorted = sorted && compareSeedRecords(batch[i-1], batch[i]) < 0
				}
				err := s.SeedSorted(batch)
				if (err == nil) != sorted {
					t.Fatalf("step %d: SeedSorted sorted=%v err=%v", step, sorted, err)
				}
				if err == nil {
					for _, r := range batch {
						o.seed(r.Trustee, r.Task, r.Exp)
					}
				}
			case 3:
				id, abusive := AgentID(next()%fuzzTrustees), next()%2 == 1
				s.ObserveUsage(id, abusive)
				l := o.usage[id]
				if abusive {
					l.Abusive++
				} else {
					l.Responsible++
				}
				o.usage[id] = l
			case 4:
				id := AgentID(next() % fuzzTrustees)
				s.Forget(id)
				o.forget(id)
			}
			checkStoreAgainst(t, step, s, o)
		}
	})
}
