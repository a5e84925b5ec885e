package main

import (
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

// runWith executes run() with fresh flags and the given command line,
// capturing stdout.
func runWith(t *testing.T, args ...string) string {
	t.Helper()
	return cmdtest.RunWith(t, run, args...)
}

func TestRunABD(t *testing.T) {
	out := runWith(t, "storagesim", "-alg", "abd", "-n", "4", "-f", "1",
		"-nu", "1", "-writes", "3", "-reads", "2", "-valuebytes", "64")
	if !strings.Contains(out, "consistency      : atomic OK") {
		t.Errorf("missing consistency verdict:\n%s", out)
	}
	if !strings.Contains(out, "Theorem B.1") {
		t.Errorf("missing lower-bound comparison:\n%s", out)
	}
}

func TestRunCASGC(t *testing.T) {
	out := runWith(t, "storagesim", "-alg", "casgc", "-n", "5", "-f", "1",
		"-nu", "2", "-writes", "6", "-reads", "2", "-valuebytes", "64")
	if !strings.Contains(out, "Theorem 6.5") {
		t.Errorf("missing Theorem 6.5 line:\n%s", out)
	}
}

// TestRejectsBadShape: a negative server count is a named error, not a panic
// inside cluster construction.
func TestRejectsBadShape(t *testing.T) {
	err := cmdtest.RunErr(t, run, "storagesim", "-n", "-1")
	if err == nil || !strings.Contains(err.Error(), "Servers must be >= 1") {
		t.Errorf("storagesim -n -1: err = %v, want an error naming Servers", err)
	}
}
