package main

import (
	"strings"
	"testing"

	"babelfish/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestUsageErrors: every documented flag rule — the CLI's own and the
// ones fleet.Config.Validate enforces — rejects its mistake with the
// usage text and exit status 2, before anything is simulated.
func TestUsageErrors(t *testing.T) {
	clitest.ExpectUsage(t, "bffleet",
		[]string{"-app", "nosuch"},
		[]string{"-arch", "nosuch"},
		[]string{"-jobs", "0"},
		[]string{"-core-shards", "-1"},
		[]string{"-scale", "NaN"},
		[]string{"-scale", "Inf"},
		[]string{"-nodes", "0"},
		[]string{"-cores", "0"},
		[]string{"-containers", "-1"},
		[]string{"-epochs", "0"},
		[]string{"-kill-prob", "1.5"},
		[]string{"-requeue-budget", "0"},
		[]string{"-mem-mb", "4"},
		[]string{"-events", "-1"},
		[]string{"-flight-depth", "64"},
		[]string{"-flight-depth", "-1", "-trace-out", "t.json"},
		[]string{"-kill-seed", "3"},
		[]string{"-part-len", "3"},
		[]string{"-arch", "both", "-series-out", "s.jsonl"},
		[]string{"-series-every", "2"},
		[]string{"-load-shape", "square"},
		[]string{"-load-shape", "const", "-load-peak", "64"},
		[]string{"-load-rps", "4"},
		[]string{"-load-shape", "trace"},
		[]string{"-queue-cap", "4"},
	)
}

// TestTinyFleetRuns: a minimal fleet runs to completion with a clean
// audit.
func TestTinyFleetRuns(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-arch", "babelfish", "-nodes", "1", "-containers", "1",
		"-epochs", "2", "-epoch-instr", "2000", "-scale", "0.05", "-audit")
	if code != 0 || !strings.Contains(stdout, "fleet: 1 nodes, 1 containers") {
		t.Fatalf("exit %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
