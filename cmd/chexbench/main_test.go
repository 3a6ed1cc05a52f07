package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunsEveryRequestedMode: when several modes are given, each one
// runs; none is skipped behind an exit status of 0.
func TestRunsEveryRequestedMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := chexbench([]string{"-coverage", "-elide", "-benches", "mcf", "-scale", "0.1", "-insts", "5000"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, stderr.String())
	}
	for _, header := range []string{"==== Tracker coverage ====\n", "==== Check elision ====\n"} {
		if !strings.Contains(stdout.String(), header) {
			t.Errorf("stdout lacks %q:\n%s", header, stdout.String())
		}
	}
}

// TestNothingRequestedIsUsageError: with no mode, figure or table there
// is nothing to run.
func TestNothingRequestedIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := chexbench([]string{"-scale", "0.1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of chexbench") {
		t.Fatalf("want usage on stderr and nothing on stdout; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}
