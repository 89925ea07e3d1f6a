package main

import (
	"strings"
	"testing"

	"babelfish/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestUsageErrors: every documented flag rule rejects its mistake with
// the usage text and exit status 2, before any experiment runs.
func TestUsageErrors(t *testing.T) {
	clitest.ExpectUsage(t, "bfbench",
		[]string{"-exp", "nosuch"},
		[]string{"-format", "xml"},
		[]string{"-exp", "fig9", "-arch", "victima"},
		[]string{"-exp", "archcompare", "-arch", "nosuch"},
		[]string{"-exp", "loadramp", "-arch", "baseline,nosuch"},
		[]string{"-jobs", "0"},
		[]string{"-core-shards", "-1"},
		[]string{"-flight-depth", "64"},
		[]string{"-flight-depth", "-1", "-trace-out", "t.json"},
	)
}

// TestStaticTable: an experiment that simulates nothing prints its
// table and exits 0.
func TestStaticTable(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-exp", "tableIII")
	if code != 0 || stdout == "" || strings.Contains(stderr, "Usage of") {
		t.Fatalf("exit %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
