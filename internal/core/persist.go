package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"siot/internal/task"
)

// This file implements store persistence. IoT devices reboot, lose power,
// and migrate; the trust state an agent has accumulated (its experience
// records and usage logs) is expensive to re-learn, so stores snapshot to a
// stable JSON format and restore from it. The update configuration is NOT
// part of the snapshot — it is code/configuration, not state — and is
// supplied again at restore time.

// snapshot is the serialized form of a Store.
type snapshot struct {
	Version int             `json:"version"`
	Owner   AgentID         `json:"owner"`
	Records []recordSnap    `json:"records"`
	Usage   []usageSnapshot `json:"usage"`
}

// recordSnap is one (trustee, task) experience record.
type recordSnap struct {
	Trustee AgentID      `json:"trustee"`
	Task    taskSnapshot `json:"task"`
	S       float64      `json:"s"`
	G       float64      `json:"g"`
	D       float64      `json:"d"`
	C       float64      `json:"c"`
	Count   int          `json:"count"`
}

// taskSnapshot serializes a task's type and weighted characteristics.
type taskSnapshot struct {
	Type    task.Type `json:"type"`
	Chars   []int     `json:"chars"`
	Weights []float64 `json:"weights"`
}

// usageSnapshot is one trustor's usage log.
type usageSnapshot struct {
	Trustor     AgentID `json:"trustor"`
	Responsible int     `json:"responsible"`
	Abusive     int     `json:"abusive"`
}

// snapshotVersion is bumped on breaking format changes.
const snapshotVersion = 1

// Save writes the store's trust state as JSON.
func (s *Store) Save(w io.Writer) error {
	snap := snapshot{Version: snapshotVersion, Owner: s.owner}
	for _, trustee := range s.Trustees() {
		for _, r := range s.Records(trustee) {
			ts := taskSnapshot{Type: r.Task.Type()}
			for _, c := range r.Task.Characteristics() {
				ts.Chars = append(ts.Chars, int(c))
				ts.Weights = append(ts.Weights, r.Task.Weight(c))
			}
			snap.Records = append(snap.Records, recordSnap{
				Trustee: trustee, Task: ts,
				S: r.Exp.S, G: r.Exp.G, D: r.Exp.D, C: r.Exp.C,
				Count: r.Count,
			})
		}
	}
	snap.Usage = append(snap.Usage, s.usageSorted()...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// LoadStore restores a store from a Save snapshot, attaching the given
// update configuration. The restored store carries a fresh Version stamp,
// never the saved store's.
func LoadStore(r io.Reader, cfg UpdateConfig) (*Store, error) {
	var snap snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding store snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d (want %d)", snap.Version, snapshotVersion)
	}
	s := NewStore(snap.Owner, cfg)
	for _, rs := range snap.Records {
		if rs.Count < 0 || int64(rs.Count) > math.MaxUint32 {
			return nil, fmt.Errorf("core: snapshot record for trustee %d has delegation count %d outside [0, %d]", rs.Trustee, rs.Count, uint32(math.MaxUint32))
		}
		chars := make([]task.Characteristic, len(rs.Task.Chars))
		for i, c := range rs.Task.Chars {
			chars[i] = task.Characteristic(c)
		}
		tk, err := task.Restore(rs.Task.Type, chars, rs.Task.Weights)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot record for trustee %d: %w", rs.Trustee, err)
		}
		s.setRecord(rs.Trustee, Record{
			Task:  tk,
			Exp:   Expectation{S: rs.S, G: rs.G, D: rs.D, C: rs.C},
			Count: rs.Count,
		})
	}
	for _, us := range snap.Usage {
		if us.Responsible < 0 || us.Abusive < 0 {
			return nil, fmt.Errorf("core: snapshot usage log for trustor %d has negative counts", us.Trustor)
		}
		if s.usage == nil {
			s.usage = make(map[AgentID]UsageLog, len(snap.Usage))
		}
		s.usage[us.Trustor] = UsageLog{Responsible: us.Responsible, Abusive: us.Abusive}
	}
	// A fresh stamp even for an empty snapshot: the loaded store replaces
	// whatever held its place, so it must not pass for that store's state.
	s.touch()
	return s, nil
}
