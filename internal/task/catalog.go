package task

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Ref is a dense catalog index standing in for a full Task value. A Ref is
// only meaningful against the Catalog that issued it — refs from different
// catalogs must never mix — and stays valid for the catalog's lifetime
// (catalogs only grow; tasks are never removed or renumbered).
//
// The point of a Ref is memory layout: a Task carries two slice headers the
// GC must scan, while a Ref is four pointer-free bytes. Large record arenas
// keyed by Ref are invisible to the garbage collector.
type Ref uint32

// Catalog interns Task values into dense Refs. Simulations draw their tasks
// from a small fixed per-profile universe, so the catalog stays tiny (tens
// of entries) while the record stores and frozen-view arenas referencing it
// hold millions of records.
//
// All methods are safe for concurrent use. Reads (Task, TypeOf, Tasks,
// Lookup) are lock-free — they load an atomic snapshot — and Intern is a
// copy-on-write append serialized by a mutex, cheap because interning a
// genuinely new task is rare.
type Catalog struct {
	mu   sync.Mutex // serializes Intern's copy-on-write appends
	snap atomic.Pointer[catalogSnap]
}

// catalogSnap is one immutable catalog state. Readers load it once and index
// freely; writers replace it wholesale.
type catalogSnap struct {
	tasks  []Task         // indexed by Ref
	byType map[Type][]Ref // interning buckets; several tasks may share a type
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{}
	c.snap.Store(&catalogSnap{byType: map[Type][]Ref{}})
	return c
}

// Len returns the number of interned tasks.
func (c *Catalog) Len() int { return len(c.snap.Load().tasks) }

// Tasks returns the current task list indexed by Ref. The slice is an
// immutable shared snapshot: every Ref issued before the call resolves in
// it, refs interned later do not. Callers on a hot path load it once per
// operation instead of paying an atomic load per record.
func (c *Catalog) Tasks() []Task { return c.snap.Load().tasks }

// Task resolves a Ref to its task. The returned value shares the catalog's
// characteristic and weight slices; resolving allocates nothing.
func (c *Catalog) Task(r Ref) Task { return c.snap.Load().tasks[r] }

// TypeOf returns the task type behind a Ref.
func (c *Catalog) TypeOf(r Ref) Type { return c.snap.Load().tasks[r].Type() }

// Lookup returns the Ref of a task already interned equal to t (same type,
// characteristics, and weights), without interning.
func (c *Catalog) Lookup(t Task) (Ref, bool) {
	return c.snap.Load().lookup(t)
}

func (s *catalogSnap) lookup(t Task) (Ref, bool) {
	for _, r := range s.byType[t.Type()] {
		if s.tasks[r].Equal(t) {
			return r, true
		}
	}
	return 0, false
}

// Intern returns the Ref of t, adding it to the catalog when no equal task
// is present. Tasks of the same type but different characteristic bags or
// weights intern separately.
func (c *Catalog) Intern(t Task) Ref {
	if r, ok := c.snap.Load().lookup(t); ok {
		return r
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.snap.Load()
	if r, ok := old.lookup(t); ok { // raced with another Intern
		return r
	}
	if len(old.tasks) > int(^Ref(0)) {
		panic(fmt.Sprintf("task: catalog overflow at %d tasks", len(old.tasks)))
	}
	r := Ref(len(old.tasks))
	next := &catalogSnap{
		tasks:  append(old.tasks[:len(old.tasks):len(old.tasks)], t),
		byType: make(map[Type][]Ref, len(old.byType)+1),
	}
	for typ, refs := range old.byType {
		next.byType[typ] = refs
	}
	bucket := next.byType[t.Type()]
	next.byType[t.Type()] = append(bucket[:len(bucket):len(bucket)], r)
	c.snap.Store(next)
	return r
}

// CatalogOf interns every task of a universe in order, so the Ref of
// universe task i equals i (universe tasks are indexed by Type). Seeding
// pipelines that address tasks by universe index get ref translation for
// free.
func CatalogOf(u Universe) *Catalog {
	c := NewCatalog()
	for _, t := range u.Tasks {
		c.Intern(t)
	}
	return c
}
