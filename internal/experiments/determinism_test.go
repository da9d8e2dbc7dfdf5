package experiments

import "testing"

// These tests pin the engine's determinism contract at the figure level:
// the worker-pool width must never change a figure's numbers.

func TestFig7ParallelismInvariant(t *testing.T) {
	run := func(parallelism int) fig7Result {
		return runFig7(Options{Seed: 5, Parallelism: parallelism}, fig7Config{Thetas: []float64{0, 0.6}, Rounds: 15})
	}
	a, b := run(1), run(8)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs between P=1 and P=8:\nP=1: %+v\nP=8: %+v",
				i, a.Cells[i], b.Cells[i])
		}
	}
}

func TestFig13ParallelismInvariant(t *testing.T) {
	run := func(parallelism int) fig13Result {
		return runFig13(Options{Seed: 5, Parallelism: parallelism}, fig13Config{Iterations: 150, Smooth: 10})
	}
	a, b := run(1), run(8)
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series counts differ: %d vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i].Name != b.Series[i].Name {
			t.Fatalf("series %d name differs: %q vs %q", i, a.Series[i].Name, b.Series[i].Name)
		}
		for j := range a.Series[i].Y {
			if a.Series[i].Y[j] != b.Series[i].Y[j] {
				t.Fatalf("series %q point %d differs between P=1 and P=8: %v vs %v",
					a.Series[i].Name, j, a.Series[i].Y[j], b.Series[i].Y[j])
			}
		}
	}
	for name, v := range a.Converged {
		if b.Converged[name] != v {
			t.Fatalf("converged profit %q differs: %v vs %v", name, v, b.Converged[name])
		}
	}
}

func TestTransitivitySweepParallelismInvariant(t *testing.T) {
	run := func(parallelism int) transitivityResult {
		return runTransitivitySweep(Options{Seed: 3, Parallelism: parallelism},
			transitivityConfig{CharCounts: []int{5}, Repeats: 1, MaxDepth: 2})
	}
	a, b := run(1), run(8)
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs between P=1 and P=8:\nP=1: %+v\nP=8: %+v",
				i, a.Cells[i], b.Cells[i])
		}
	}
}
