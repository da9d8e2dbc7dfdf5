package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden-figure harness locks every registered experiment's numbers —
// the Fig. 7/8/12–16 curves, Table 1/2, the ablations, and the attack
// scenarios — against drift: each experiment runs at a fixed seed and its
// canonical serialization (summary table plus every figure series) must
// match the committed snapshot byte for byte, at worker-pool widths 1 AND 8.
// A scale refactor that silently changes a figure, or a parallelism change
// that breaks the engine's determinism contract, fails here.
//
// Regenerate intentionally with:
//
//	go test ./internal/experiments -run TestGoldenFigures -update

var updateGolden = flag.Bool("update", false, "rewrite the golden-figure snapshots instead of comparing")

// goldenSeed is the fixed seed all snapshots are taken at.
const goldenSeed = 42

// goldenDoc is the canonical serialized form of one experiment result.
type goldenDoc struct {
	Experiment string        `json:"experiment"`
	Seed       uint64        `json:"seed"`
	Table      goldenTable   `json:"table"`
	Charts     []goldenChart `json:"charts,omitempty"`
}

type goldenTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type goldenChart struct {
	Title  string         `json:"title"`
	Series []goldenSeries `json:"series"`
}

type goldenSeries struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// goldenEncode serializes a result. Go's JSON encoder emits the shortest
// float representation that round-trips, so equal bytes ⇔ equal numbers.
func goldenEncode(name string, res Result) ([]byte, error) {
	tbl := res.Table()
	doc := goldenDoc{
		Experiment: name,
		Seed:       goldenSeed,
		Table:      goldenTable{Title: tbl.Title, Headers: tbl.Headers, Rows: tbl.Rows},
	}
	if doc.Table.Rows == nil {
		doc.Table.Rows = [][]string{}
	}
	if c, ok := res.(Charter); ok {
		for _, chart := range c.Charts() {
			gc := goldenChart{Title: chart.Title}
			for _, s := range chart.Series {
				gc.Series = append(gc.Series, goldenSeries{Name: s.Name, X: s.X, Y: s.Y})
			}
			doc.Charts = append(doc.Charts, gc)
		}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// goldenPath returns the snapshot file for one experiment.
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// goldenRunKey names one experiment run: experiment, seed and worker-pool
// width.
type goldenRunKey struct {
	name string
	seed uint64
	par  int
}

// goldenRuns holds every result runGolden has computed in this test process.
var goldenRuns = map[goldenRunKey]Result{}

// runGolden returns RunOpts(name, {Seed: seed, Parallelism: par}), computed
// once per process: TestGoldenFigures and TestAttackRegistryEntries check
// the same runs in different ways, and the attack runs are among the
// slowest of the registry. TestGoldenRegenerationIdentity does not use it,
// because its pass must be a fresh one.
func runGolden(t *testing.T, name string, seed uint64, par int) Result {
	t.Helper()
	key := goldenRunKey{name, seed, par}
	if res, ok := goldenRuns[key]; ok {
		return res
	}
	res, err := RunOpts(name, Options{Seed: seed, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	goldenRuns[key] = res
	return res
}

func TestGoldenFigures(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			path := goldenPath(name)
			// P=1 and P=8 must serialize to the very same bytes: the
			// engine's determinism contract, checked end to end.
			var byPar [2][]byte
			for i, par := range []int{1, 8} {
				var err error
				byPar[i], err = goldenEncode(name, runGolden(t, name, goldenSeed, par))
				if err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(byPar[0], byPar[1]) {
				t.Fatalf("parallelism changed the result: P=1 and P=8 serializations differ\n%s",
					firstDiff(byPar[0], byPar[1]))
			}
			got := byPar[0]
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot for %q (regenerate with -update): %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("result drifted from golden snapshot %s (regenerate intentionally with -update)\n%s",
					path, firstDiff(want, got))
			}
		})
	}
}

// TestGoldenRegenerationIdentity turns the one-time golden regeneration
// into a standing invariant: what `-update` would write must not depend on
// when or how often it runs. TestGoldenFigures already proves one P=1 and
// one P=8 run serialize identically; this test replays the full registry a
// further time — after every experiment has already run twice in this
// process — and requires the bytes to still match the committed snapshots.
// Cross-run state that could poison a regeneration (shared arena pools,
// sync.Pool scratch, lazily grown store maps, a stray package-level rng)
// fails here, so `go test -update` is safe to run at any parallelism and
// any point in a session.
func TestGoldenRegenerationIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("third full registry pass skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("byte-determinism guard, skipped under -race (TestGoldenFigures covers the code paths there)")
	}
	if *updateGolden {
		t.Skip("snapshots are being rewritten; TestGoldenFigures validates the update pass")
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			res, err := RunOpts(name, Options{Seed: goldenSeed, Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			got, err := goldenEncode(name, res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatalf("missing golden snapshot for %q (regenerate with -update): %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("repeated regeneration of %q drifted from the committed snapshot — process state leaks into the experiments\n%s",
					name, firstDiff(want, got))
			}
		})
	}
}

// TestGoldenNoStrays ensures every committed snapshot still corresponds to a
// registered experiment, so renames cannot leave dead goldens behind.
func TestGoldenNoStrays(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Skipf("no golden directory yet: %v", err)
	}
	known := map[string]bool{}
	for _, name := range Names() {
		known[name+".json"] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("stray golden snapshot %s has no registered experiment", e.Name())
		}
	}
}

// firstDiff renders the first byte-level divergence with a little context.
func firstDiff(want, got []byte) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	if i == n && len(want) == len(got) {
		return "(no byte difference?)"
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) string {
		hi := i + 80
		if hi > len(b) {
			hi = len(b)
		}
		if lo >= len(b) {
			return ""
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("first difference at byte %d:\nwant: …%s…\ngot:  …%s…", i, clip(want), clip(got))
}
