package task

import (
	"sync"
	"testing"
)

func TestCatalogInternDedup(t *testing.T) {
	c := NewCatalog()
	a := MustNew(3, map[Characteristic]float64{CharGPS: 1, CharImage: 2})
	b := MustNew(3, map[Characteristic]float64{CharGPS: 1, CharImage: 2})
	other := MustNew(3, map[Characteristic]float64{CharGPS: 2, CharImage: 1})

	ra := c.Intern(a)
	if rb := c.Intern(b); rb != ra {
		t.Fatalf("equal tasks interned to different refs: %d vs %d", ra, rb)
	}
	ro := c.Intern(other)
	if ro == ra {
		t.Fatalf("same-type tasks with different weights shared ref %d", ra)
	}
	if n := len(c.Tasks()); n != 2 {
		t.Fatalf("catalog holds %d tasks, want 2", n)
	}
	if got := c.Tasks()[ra]; !got.Equal(a) {
		t.Fatalf("ref %d resolves to %v, want %v", ra, got, a)
	}
	if got := c.Tasks()[ro]; !got.Equal(other) {
		t.Fatalf("ref %d resolves to %v, want %v", ro, got, other)
	}
}

func TestCatalogTasksSnapshot(t *testing.T) {
	c := NewCatalog()
	r0 := c.Intern(Uniform(0, CharGPS))
	snap := c.Tasks()
	c.Intern(Uniform(1, CharImage))
	if len(snap) != 1 {
		t.Fatalf("snapshot grew after a later Intern: len %d", len(snap))
	}
	if !snap[r0].Equal(Uniform(0, CharGPS)) {
		t.Fatal("snapshot does not resolve a pre-snapshot ref")
	}
	if len(c.Tasks()) != 2 {
		t.Fatalf("fresh snapshot has %d tasks, want 2", len(c.Tasks()))
	}
}

// TestCatalogConcurrentIntern hammers Intern from many goroutines over a
// small task set: every goroutine must see one consistent ref per task and
// the catalog must not duplicate entries.
func TestCatalogConcurrentIntern(t *testing.T) {
	c := NewCatalog()
	tasks := make([]Task, 16)
	for i := range tasks {
		tasks[i] = Uniform(Type(i%4), Characteristic(i), Characteristic(i+1))
	}
	const workers = 8
	refs := make([][]Ref, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]Ref, len(tasks))
			for round := 0; round < 100; round++ {
				for i, tk := range tasks {
					out[i] = c.Intern(tk)
				}
			}
			refs[w] = out
		}(w)
	}
	wg.Wait()
	if n := len(c.Tasks()); n != len(tasks) {
		t.Fatalf("catalog holds %d tasks, want %d", n, len(tasks))
	}
	for w := 1; w < workers; w++ {
		for i := range tasks {
			if refs[w][i] != refs[0][i] {
				t.Fatalf("worker %d interned task %d at ref %d, worker 0 at %d", w, i, refs[w][i], refs[0][i])
			}
		}
	}
}
