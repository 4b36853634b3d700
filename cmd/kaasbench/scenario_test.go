package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScenarioList(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenario(&buf, "list", 1, 2000, "", ""); err != nil {
		t.Fatalf("runScenario list: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"replay-diurnal", "chaos-flap", "drain-midload", "mux-storm", "node-drain-handoff"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing is missing %s:\n%s", want, out)
		}
	}
}

func TestScenarioUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenario(&buf, "no-such", 1, 2000, "", ""); err == nil {
		t.Error("unknown scenario succeeded")
	}
}

// TestScenarioReproducibleOutput runs one scenario twice through the CLI
// path with the same seed and requires byte-identical stdout — the same
// diff the CI reproducibility gate performs on the full matrix.
func TestScenarioReproducibleOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run skipped in short mode")
	}
	out := filepath.Join(t.TempDir(), "scenarios.json")
	run := func() string {
		var buf bytes.Buffer
		if err := runScenario(&buf, "drain-midload", 1, 2000, "", out); err != nil {
			t.Fatalf("runScenario: %v", err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed CLI runs diverged:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if !strings.Contains(a, "result: PASS") {
		t.Errorf("scenario did not pass:\n%s", a)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading JSON report: %v", err)
	}
	var report scenarioReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("parsing JSON report: %v", err)
	}
	if !report.Passed || len(report.Scenarios) != 1 || report.Scenarios[0].Scenario != "drain-midload" {
		t.Errorf("unexpected report: %+v", report)
	}
}

// TestScenarioExternalTrace replays a recorded CSV trace through a named
// scenario — the kaasbench -scenario-trace path.
func TestScenarioExternalTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run skipped in short mode")
	}
	var sb strings.Builder
	sb.WriteString("offset_ms,kernel,n,payload\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%d,mci,1000000000,0\n", i*25)
	}
	trace := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(trace, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runScenario(&buf, "replay-diurnal", 1, 2000, trace, ""); err != nil {
		t.Fatalf("runScenario with external trace: %v", err)
	}
	if !strings.Contains(buf.String(), "trace: 40 events") {
		t.Errorf("external trace was not replayed:\n%s", buf.String())
	}
}
