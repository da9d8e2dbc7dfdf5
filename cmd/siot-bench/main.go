// Command siot-bench regenerates the tables and figures of the paper's
// evaluation at full scale: it prints each experiment's summary table,
// renders figure curves as ASCII charts, verifies the paper's qualitative
// claims (shape checks), and optionally exports CSV files for external
// plotting.
//
// Usage:
//
//	siot-bench [-seed N] [-exp table1,fig7,...|all] [-csv DIR] [-charts] [-parallel P] [-model NAME]
//
// Performance is measured elsewhere: the repeated, fingerprinted,
// phase-resolved workloads live in benchmark/ (bash benchmark/run.sh), and
// the per-path micro-benchmarks in the repository's go test benchmarks.
//
// Exit status follows the shared CLI convention: 2 for usage errors, 1 for
// runtime failures (failed shape checks, I/O errors).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"siot/internal/cliutil"
	"siot/internal/core"
	"siot/internal/experiments"
	"siot/internal/report"
)

func main() {
	seed := flag.Uint64("seed", 1, "experiment seed")
	expFlag := flag.String("exp", "all", "comma-separated experiment ids, or 'all' (known: "+strings.Join(experiments.Names(), ", ")+")")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	charts := flag.Bool("charts", true, "render ASCII charts for figure experiments")
	parallel := flag.Int("parallel", 0, "simulation worker-pool width (0 = GOMAXPROCS, 1 = serial); outputs are identical at any width")
	modelName := flag.String("model", "", "restrict the model-matrix experiment to one registered trust model (empty = all)")
	flag.Parse()

	if err := cliutil.ValidateParallel(*parallel); err != nil {
		cliutil.Usage("siot-bench", err)
	}

	var names []string
	if *expFlag == "all" {
		names = experiments.Names()
	} else {
		for _, name := range strings.Split(*expFlag, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	// Reject every bad name before the first experiment runs.
	known := experiments.Names()
	for _, name := range names {
		if _, ok := slices.BinarySearch(known, name); !ok {
			cliutil.Usage("siot-bench", fmt.Errorf("%w %q (known: %v)", experiments.ErrUnknownExperiment, name, known))
		}
	}
	if *modelName != "" {
		if _, err := core.ParseModel(*modelName); err != nil {
			cliutil.Usage("siot-bench", err)
		}
	}

	failed := 0
	for _, name := range names {
		fmt.Printf("==> %s (seed %d)\n", name, *seed)
		res, err := experiments.RunOpts(name, experiments.Options{Seed: *seed, Parallelism: *parallel, Model: *modelName})
		if err != nil {
			cliutil.Usage("siot-bench", err)
		}
		if err := experiments.Render(os.Stdout, res, *charts); err != nil {
			cliutil.Runtime("siot-bench", fmt.Errorf("render: %w", err))
		}
		fmt.Println()
		if errs := res.ShapeCheck(); len(errs) > 0 {
			failed += len(errs)
			for _, e := range errs {
				fmt.Printf("SHAPE FAIL  %v\n", e)
			}
		} else {
			fmt.Printf("shape OK: the paper's qualitative claims hold for %s\n", name)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, res); err != nil {
				cliutil.Runtime("siot-bench", fmt.Errorf("csv: %w", err))
			}
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Printf("%d shape check(s) failed\n", failed)
		os.Exit(cliutil.ExitRuntime)
	}
}

// writeCSV writes the experiment's table (and series, if any) under dir.
func writeCSV(dir, name string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, name+"_table.csv"))
	if err != nil {
		return err
	}
	defer tf.Close()
	if err := res.Table().WriteCSV(tf); err != nil {
		return err
	}
	if c, ok := res.(experiments.Charter); ok {
		for i, chart := range c.Charts() {
			sf, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_series%d.csv", name, i)))
			if err != nil {
				return err
			}
			if err := report.SeriesCSV(sf, chart.Series...); err != nil {
				sf.Close()
				return err
			}
			if err := sf.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
