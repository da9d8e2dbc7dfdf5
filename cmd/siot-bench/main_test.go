package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"slices"
	"testing"
	"time"
)

// TestMain runs siot-bench's main instead of the tests when the test binary
// is re-executed with siot-bench's arguments after "--" (see runBench).
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"siot-bench"}, os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs siot-bench with args in a child process of the test binary and
// returns its stdout, its stderr and its exit status.
func runBench(t *testing.T, args ...string) (stdout, stderr string, code int) {
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
		t.Fatalf("siot-bench %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestBadNamesFailFast checks that an unknown experiment or trust model
// exits 2 before any experiment runs, so nothing reaches stdout.
func TestBadNamesFailFast(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table1,nope"},
		{"-exp", "table1", "-model", "bogus"},
	} {
		stdout, stderr, code := runBench(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("siot-bench %v: exit status %d, stdout %q; want 2 and no output (stderr %q)", args, code, stdout, stderr)
		}
	}
}
