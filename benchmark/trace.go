package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span covers one call into a layer, recorded by the benchmark around the
// public function it calls. Name is "<module>.<operation>"; the module
// prefix is the layer the span's self time is charged to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`    // request (query, event, step, pass) the span serves
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory (about 64 MB). Later spans are
// counted as dropped; the self-time table then covers the kept prefix.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64
	mu      sync.Mutex
	lanes   []*lane
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane is one goroutine's span buffer; lanes never share a buffer, so
// recording takes no lock.
type lane struct {
	t     *tracer
	spans []span
}

// lane returns a new buffer for one goroutine (nil when t is nil).
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// sibling returns a new lane of the same tracer, for a goroutine the lane's
// owner starts (nil when l is nil).
func (l *lane) sibling() *lane {
	if l == nil {
		return nil
	}
	return l.t.lane()
}

// open is a started span; close it with end.
type open struct {
	id, parent, req int64
	name            string
	start           int64
}

// begin starts a span. On a nil lane it returns a zero span whose id (0)
// makes its children roots, and end ignores it.
func (l *lane) begin(name string, parent, req int64) open {
	if l == nil {
		return open{}
	}
	return open{
		id: l.t.ids.Add(1), parent: parent, req: req, name: name,
		start: int64(time.Since(l.t.t0)),
	}
}

func (l *lane) end(o open) {
	if l == nil || o.id == 0 {
		return
	}
	l.record(span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: int64(time.Since(l.t.t0))})
}

// add records an already-timed leaf span (for calls whose duration the
// workload measures anyway).
func (l *lane) add(name string, parent, req int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.record(span{
		ID: l.t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.t.t0)), End: int64(end.Sub(l.t.t0)),
	})
}

func (l *lane) record(s span) {
	if l.t.kept.Add(1) > maxSpans {
		l.t.dropped.Add(1)
		return
	}
	l.spans = append(l.spans, s)
}

// spans returns every kept span in id order. Call after all lanes stopped.
func (t *tracer) spans() []span {
	var all []span
	for _, l := range t.lanes {
		all = append(all, l.spans...)
	}
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.ID, b.ID) })
	return all
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus the time children cover
}

// selfTimes computes every span's self time — its duration minus the part
// of its interval that the union of its children's intervals covers — and
// sums it per span name. Children running in parallel (search fan-out over
// the worker pool) are merged into one covered interval set, so overlapping
// children are not subtracted twice.
func selfTimes(spans []span) []selfStat {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*selfStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s.Start, s.End, children[s.ID]))
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b selfStat) int { return cmp.Compare(b.Self, a.Self) })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// layerOf is the module prefix of a span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// printSelfTimes writes the per-span and per-layer self-time table.
func printSelfTimes(w io.Writer, stats []selfStat, dropped int64) {
	var total time.Duration
	layers := make(map[string]time.Duration)
	for _, st := range stats {
		total += st.Self
		layers[layerOf(st.Name)] += st.Self
	}
	fmt.Fprintf(w, "self time by span (spans dropped past the %d cap: %d)\n", maxSpans, dropped)
	fmt.Fprintf(w, "  %-22s %9s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, st := range stats {
		fmt.Fprintf(w, "  %-22s %9d %12.3f %12.3f %6.1f%%\n", st.Name, st.Count,
			ms(st.Total), ms(st.Self), pct(st.Self, total))
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(layers[b], layers[a]) })
	fmt.Fprintln(w, "self time by layer")
	for _, l := range names {
		fmt.Fprintf(w, "  %-22s %12.3f ms %6.1f%%\n", l, ms(layers[l]), pct(layers[l], total))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
