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
		[]string{"-cores", "-3"},
		[]string{"-scale", "-1"},
		[]string{"-scale", "NaN"},
		[]string{"-scale", "Inf"},
		[]string{"-exp", "tableI", "-scale", "NaN", "-cores", "-3"},
	)
}

// TestStaticTable: an experiment that simulates nothing prints its
// table and exits 0; -cores 0 and -scale 0 mean the defaults.
func TestStaticTable(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-exp", "tableIII", "-cores", "0", "-scale", "0")
	if code != 0 || stdout == "" || strings.Contains(stderr, "Usage of") {
		t.Fatalf("exit %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
