package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"siot/internal/adversary"
	"siot/internal/experiments"
)

// TestMain runs siot-sim's main instead of the tests when the test binary
// is re-executed with siot-sim's arguments after "--" (see runSim).
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"siot-sim"}, os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs siot-sim with args in a child process of the test binary and
// returns its stdout, its stderr and its exit status.
func runSim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"--"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("siot-sim %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestAttackRunsScenario checks that an attacked mutuality run is the
// attack scenario: -attack, -attackers and -collude swap the model, resize
// the ring and wrap it in a collusion, and stdout after the network line is
// exactly the scenario's rendered result.
func TestAttackRunsScenario(t *testing.T) {
	cfg := experiments.DefaultAttackConfig(adversary.Collusion{Of: adversary.Whitewashing{}})
	cfg.Rounds = 20
	cfg.Attackers = 10
	res := experiments.RunAttack(experiments.Options{Seed: 7}, cfg)
	if res.Model != "collusion(whitewashing)" || res.Attackers != 10 {
		t.Fatalf("scenario model %q with %d attackers, want collusion(whitewashing) with 10", res.Model, res.Attackers)
	}
	var want bytes.Buffer
	if err := experiments.Render(&want, res, true); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := runSim(t, "-seed", "7", "-attack", "whitewash", "-attackers", "10", "-collude", "-rounds", "20", "-theta", "0")
	if code != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", code, stderr)
	}
	network, got, _ := strings.Cut(stdout, "\n")
	if !strings.HasPrefix(network, "network facebook:") {
		t.Fatalf("first line %q, want the network line", network)
	}
	if got != want.String() {
		t.Fatalf("stdout after the network line:\n%s\nwant the rendered scenario:\n%s", got, want.String())
	}
}

// TestBadAttackFlagsAreUsageErrors checks that an unknown attack model, the
// deleted -experiment flag, a ring size without a model, an unknown mode,
// strategy or trust model, and a non-finite -theta exit 2 before anything
// is printed — before the network is generated.
func TestBadAttackFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-attack", "sybil"},
		{"-experiment", "attack-onoff"},
		{"-attackers", "5"},
		{"-mode", "bogus"},
		{"-mode", "netprofit", "-strategy", "bogus"},
		{"-mode", "transitivity", "-model", "nope"},
		{"-rounds", "5", "-theta", "NaN"},
		{"-rounds", "5", "-theta", "Inf"},
	} {
		stdout, stderr, code := runSim(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("siot-sim %v: exit status %d, stdout %q; want 2 and no output (stderr %q)", args, code, stdout, stderr)
		}
	}
}
