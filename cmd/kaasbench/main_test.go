package main

import (
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunSingleFigure(t *testing.T) {
	if err := run([]string{"-fig", "15", "-quick", "-samples", "1", "-scale", "500"}); err != nil {
		t.Fatalf("run -fig 15: %v", err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err == nil {
		t.Error("unknown figure succeeded")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag succeeded")
	}
}

func TestRunLoadgen(t *testing.T) {
	if err := run([]string{"-loadgen", "16", "-loadgen-conc", "4", "n=1000"}); err != nil {
		t.Fatalf("run -loadgen: %v", err)
	}
}

func TestRunFaultCheck(t *testing.T) {
	if err := run([]string{"-faultcheck", "-fault-invocations", "10"}); err != nil {
		t.Fatalf("run -faultcheck: %v", err)
	}
}

// Two modes in one call, or positional arguments to a mode that reads
// none, are usage errors: dispatch order must not pick a silent winner.
func TestRunRejectsAmbiguousInvocation(t *testing.T) {
	for _, args := range [][]string{
		{"-loadgen", "4", "-scenario", "list"},
		{"-fig", "7", "bogus=1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run %v succeeded", args)
		}
	}
}
