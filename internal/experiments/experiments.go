// Package experiments defines one runner per table and figure of the
// paper's evaluation (§5). Every runner takes the run context (Options: the
// seed and the engine's worker-pool width) beside its own scale, is
// deterministic in the seed and bit-identical at every width, returns a
// typed result that can render itself as a table, ASCII chart, or CSV, and
// exposes a ShapeCheck that verifies the paper's qualitative claims hold on
// the reproduction (who wins, in which direction rates move).
//
// The registry (Names, Run, RunOpts, Render) is the package's surface: each
// experiment runs under its ID with the paper's full-size parameters.
// MeasureTable1Row stays exported for siot-netgen, and RunAttack with
// DefaultAttackConfig for siot-sim, which runs the attack scenario at the
// scale its flags pick under the same Options.
package experiments

import "fmt"

// shapeError describes one violated qualitative expectation.
type shapeError struct {
	Experiment string
	Detail     string
}

// Error implements error.
func (e shapeError) Error() string {
	return fmt.Sprintf("%s: %s", e.Experiment, e.Detail)
}

// shapeCheck collects violations.
type shapeCheck struct {
	experiment string
	errs       []error
}

func (c *shapeCheck) expect(ok bool, format string, args ...interface{}) {
	if !ok {
		c.errs = append(c.errs, shapeError{Experiment: c.experiment, Detail: fmt.Sprintf(format, args...)})
	}
}
