package experiments

import (
	"reflect"
	"strings"
	"testing"

	"siot/internal/core"
)

// These tests run every experiment at reduced scale and assert the paper's
// qualitative claims (the ShapeChecks) hold. The full-scale runs live in
// cmd/siot-bench, and the goldens pin their numbers.

func noShapeErrors(t *testing.T, errs []error) {
	t.Helper()
	for _, e := range errs {
		t.Error(e)
	}
}

func TestTable1Shape(t *testing.T) {
	res := runTable1(Options{Seed: 1})
	noShapeErrors(t, res.ShapeCheck())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var b strings.Builder
	if err := res.Table().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"facebook", "gplus", "twitter", "Modularity"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	res := runFig7(Options{Seed: 1}, paperFig7)
	noShapeErrors(t, res.ShapeCheck())
	if len(res.Cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(res.Cells))
	}
}

func TestTransitivityShape(t *testing.T) {
	cfg := paperTransitivity
	cfg.CharCounts = []int{4, 7}
	// 3 repeats, not 2: the aggressive-vs-conservative success gap the
	// ShapeCheck tolerates (±0.03) is an averaged, full-scale claim —
	// two-repeat samples dip below it on many seeds (the full Repeats=5
	// sweep passes on every seed tried).
	cfg.Repeats = 3
	res := runTransitivitySweep(Options{Seed: 1}, cfg)
	noShapeErrors(t, res.ShapeCheck())
	if len(res.Cells) != 3*2*3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, s := range res.successSeries() {
		if err := s.Validate(); err != nil {
			t.Error(err)
		}
	}
	if len(res.unavailableSeries()) != 9 || len(res.potentialSeries()) != 9 {
		t.Fatal("series count wrong")
	}
}

func TestFig12Shape(t *testing.T) {
	res := runFig12(Options{Seed: 1})
	noShapeErrors(t, res.ShapeCheck())
	series := res.series()
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	// Sorted ascending per policy.
	for _, s := range series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s not sorted at %d", s.Name, i)
			}
		}
	}
}

func TestTable2Shape(t *testing.T) {
	res := runTable2(Options{Seed: 1}, table2Config{Repeats: 2})
	noShapeErrors(t, res.ShapeCheck())
	if len(res.Cells) != 9 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
}

func TestFig13Shape(t *testing.T) {
	cfg := paperFig13
	cfg.Iterations = 900
	res := runFig13(Options{Seed: 1}, cfg)
	noShapeErrors(t, res.ShapeCheck())
	if len(res.Series) != 6 {
		t.Fatalf("series = %d", len(res.Series))
	}
}

func TestFig15Shape(t *testing.T) {
	res := runFig15(Options{Seed: 1}, fig15Config{Runs: 40})
	noShapeErrors(t, res.ShapeCheck())
	if len(res.NoEnv.Y) != 300 {
		t.Fatalf("series length = %d", len(res.NoEnv.Y))
	}
}

func TestFig8Shape(t *testing.T) {
	res := runFig8(Options{Seed: 1}, fig8Config{Experiments: 8})
	noShapeErrors(t, res.ShapeCheck())
	if len(res.WithModel.Y) != 8 || len(res.WithoutModel.Y) != 8 {
		t.Fatal("series lengths wrong")
	}
	for _, v := range res.WithModel.Y {
		if v < 0 || v > 100 {
			t.Fatalf("percentage out of range: %v", v)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	res := runFig14(Options{Seed: 1}, fig14Config{TasksPerTrustor: 30})
	noShapeErrors(t, res.ShapeCheck())
	if len(res.WithModel.Y) != 30 {
		t.Fatal("series length wrong")
	}
}

func TestFig16Shape(t *testing.T) {
	res := runFig16(Options{Seed: 1}, paperFig16)
	noShapeErrors(t, res.ShapeCheck())
	if len(res.WithModel.Y) != 50 {
		t.Fatal("series length wrong")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := runFig7(Options{Seed: 5}, fig7Config{Thetas: []float64{0, 0.6}, Rounds: 5})
	b := runFig7(Options{Seed: 5}, fig7Config{Thetas: []float64{0, 0.6}, Rounds: 5})
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs across identical runs", i)
		}
	}
}

func TestAblationEq7Shape(t *testing.T) {
	cfg := paperAblationEq7
	cfg.Pairs = 4000
	res := runAblationEq7(Options{Seed: 1}, cfg)
	noShapeErrors(t, res.ShapeCheck())
	// Deeper chains too: eq. 7's fold stays exact at depth 4.
	cfg.Depth = 4
	res = runAblationEq7(Options{Seed: 1}, cfg)
	noShapeErrors(t, res.ShapeCheck())
}

func TestAblationCannikinShape(t *testing.T) {
	res := runAblationCannikin(Options{Seed: 1}, ablationCannikinConfig{Runs: 20})
	noShapeErrors(t, res.ShapeCheck())
}

func TestAblationSelfDelegationShape(t *testing.T) {
	res := runAblationSelfDelegation(Options{Seed: 1}, ablationSelfDelegationConfig{Iterations: 300})
	noShapeErrors(t, res.ShapeCheck())
}

func TestRegistryRunsEverything(t *testing.T) {
	if len(Names()) < 13 {
		t.Fatalf("registry has %d entries: %v", len(Names()), Names())
	}
	// The cheap entries actually run through the registry.
	for _, name := range []string{"fig15", "ablation-eq7"} {
		res, err := Run(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table() == nil {
			t.Fatalf("%s produced no table", name)
		}
	}
	// Options.Model narrows model-matrix to one model: its cells and the
	// success rates match that model's share of the full matrix.
	t.Run("model-matrix filter", func(t *testing.T) {
		cfg := DefaultAttackConfig(nil)
		cfg.Rounds = 6
		all := runModelMatrix(Options{Seed: 3}, cfg)
		for _, name := range core.ModelNames() {
			one := runModelMatrix(Options{Seed: 3, Model: name}, cfg)
			var want []modelMatrixCell
			for _, c := range all.Cells {
				if c.Model == name {
					want = append(want, c)
				}
			}
			if !reflect.DeepEqual(one.Cells, want) {
				t.Fatalf("%s: cells of the one-model matrix differ from its cells in the full matrix", name)
			}
			if one.BaselineSuccess != all.BaselineSuccess || !reflect.DeepEqual(one.AttackedSuccess, all.AttackedSuccess) {
				t.Fatalf("%s: success rates (%v, %v) differ from the full matrix's (%v, %v)",
					name, one.BaselineSuccess, one.AttackedSuccess, all.BaselineSuccess, all.AttackedSuccess)
			}
		}
		if _, err := RunOpts("model-matrix", Options{Model: "nope"}); err == nil {
			t.Fatal("RunOpts accepted an unknown model")
		}
	})
}

func TestShapeErrorMessage(t *testing.T) {
	e := shapeError{Experiment: "figX", Detail: "wrong"}
	if e.Error() != "figX: wrong" {
		t.Fatalf("error = %q", e.Error())
	}
}
