// Package cliutil unifies the command-line conventions of the siot cmds:
// one exit-code contract (2 for usage errors, 1 for runtime failures, as
// flag.Parse itself exits 2 on unknown flags) and shared validation of the
// flags every cmd accepts, so a bad -parallel or -attackers fails at parse
// time with a clear message instead of deep in the engine.
package cliutil

import (
	"fmt"
	"os"
)

// Exit codes. Usage errors — bad flag values, unknown names, conflicting
// flags — exit 2, matching what flag.Parse does for unknown flags; failures
// of otherwise well-formed invocations (I/O errors, failed checks) exit 1.
const (
	ExitRuntime = 1
	exitUsage   = 2
)

// Usage prints "cmd: err" to stderr and exits with exitUsage.
func Usage(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(exitUsage)
}

// Runtime prints "cmd: err" to stderr and exits with ExitRuntime.
func Runtime(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(ExitRuntime)
}

// ValidateParallel rejects negative -parallel values (0 means GOMAXPROCS,
// 1 means serial).
func ValidateParallel(parallel int) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = GOMAXPROCS, 1 = serial), got %d", parallel)
	}
	return nil
}

// ValidatePositive rejects values below 1 for flags that size a loop or an
// alphabet (-rounds, -iters, -chars), which would otherwise panic or
// silently no-op deep in the engine.
func ValidatePositive(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s must be >= 1, got %d", name, v)
	}
	return nil
}

// ValidateAttackFlags cross-checks the adversary knobs: -attackers must be
// non-negative, and -attackers or -collude need an -attack model, without
// which they would be silently ignored.
func ValidateAttackFlags(attack string, attackers int, collude bool) error {
	if attackers < 0 {
		return fmt.Errorf("-attackers must be >= 0, got %d", attackers)
	}
	if attack == "" {
		if collude {
			return fmt.Errorf("-collude requires an -attack model")
		}
		if attackers > 0 {
			return fmt.Errorf("-attackers requires an -attack model")
		}
	}
	return nil
}
