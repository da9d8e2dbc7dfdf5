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

	"siot/internal/experiments"
)

// TestMain runs siot-netgen's main instead of the tests when the test binary
// is re-executed with siot-netgen's arguments after "--" (see runNetgen).
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"siot-netgen"}, os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runNetgen runs siot-netgen with args in a child process of the test binary and
// returns its stdout, its stderr and its exit status.
func runNetgen(t *testing.T, args ...string) (stdout, stderr string, code int) {
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
		t.Fatalf("siot-netgen %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestTable1IsTheExperimentTable checks that siot-netgen prints the
// table1 experiment's table, for all three networks or for one.
func TestTable1IsTheExperimentTable(t *testing.T) {
	res, err := experiments.Run("table1", 1)
	if err != nil {
		t.Fatal(err)
	}
	all := res.(experiments.Table1Result)
	for _, tc := range []struct {
		net  string
		rows []experiments.Table1Row
	}{
		{"all", all.Rows},
		{"twitter", all.Rows[2:]},
	} {
		var want bytes.Buffer
		if err := experiments.Render(&want, experiments.Table1Result{Rows: tc.rows}, false); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := runNetgen(t, "-seed", "1", "-net", tc.net)
		if code != 0 {
			t.Fatalf("-net %s: exit status %d; stderr:\n%s", tc.net, code, stderr)
		}
		if !strings.HasPrefix(stdout, want.String()) {
			t.Fatalf("-net %s: stdout\n%s\ndoes not begin with the table1 table\n%s", tc.net, stdout, want.String())
		}
		if tc.net == "twitter" && strings.Contains(stdout, "facebook") {
			t.Fatalf("-net twitter: stdout names another network:\n%s", stdout)
		}
	}
}
