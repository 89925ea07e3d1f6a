package main

import (
	"path/filepath"
	"strings"
	"testing"

	"babelfish/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestUsageErrors: every documented flag rule rejects its mistake with
// the usage text and exit status 2, before anything is simulated.
func TestUsageErrors(t *testing.T) {
	clitest.ExpectUsage(t, "bfsim",
		[]string{"-app", "nosuch"},
		[]string{"-arch", "nosuch"},
		[]string{"-arch", "baseline,nosuch"},
		[]string{"-jobs", "0"},
		[]string{"-core-shards", "-1"},
		[]string{"-scale", "NaN"},
		[]string{"-scale", "Inf"},
		[]string{"-scale", "0"},
		[]string{"-cores", "0"},
		[]string{"-measure", "0"},
		[]string{"-trace", "-1"},
		[]string{"-flight-depth", "64"},
		[]string{"-flight-depth", "-1", "-trace-out", "t.json"},
		[]string{"-failseed", "3"},
		[]string{"-sample-every", "1000"},
		[]string{"-arch", "baseline", "-series-out", "s.jsonl"},
		[]string{"-arch", "both", "-series-out", "s.jsonl", "-sample-every", "1000"},
		[]string{"-inject-mem-nth", "5"},
		[]string{"-inject-mem", "disk", "-inject-mem-nth", "5"},
		[]string{"-inject-mem", "tlb"},
		[]string{"-inject-mem", "tlb", "-inject-mem-prob", "1.5"},
		[]string{"-inject-mem", "tlb", "-inject-mem-nth", "5", "-inject-mem-mode", "flip"},
		[]string{"-inject-mem", "pwc", "-inject-mem-nth", "5", "-inject-mem-mode", "poison"},
	)
}

// tiny is a run small enough for a unit test.
var tiny = []string{"-app", "httpd", "-cores", "1", "-containers", "1", "-scale", "0.05", "-warm", "2000", "-measure", "5000"}

// TestRunsArchListIdenticallyAtAnyWidth: a comma list of architectures
// runs in the order given, and the report does not depend on -jobs.
func TestRunsArchListIdenticallyAtAnyWidth(t *testing.T) {
	var outs []string
	for _, jobs := range []string{"1", "2"} {
		code, stdout, stderr := clitest.Run(t, append(tiny, "-arch", "victima,baseline", "-jobs", jobs)...)
		if code != 0 {
			t.Fatalf("-jobs %s: exit %d; stderr:\n%s", jobs, code, stderr)
		}
		outs = append(outs, stdout)
	}
	if outs[0] != outs[1] {
		t.Fatalf("report differs across -jobs:\n%s\n---\n%s", outs[0], outs[1])
	}
	v, b := strings.Index(outs[0], "victima "), strings.Index(outs[0], "baseline ")
	if v < 0 || b < 0 || v > b {
		t.Fatalf("rows missing or out of -arch order:\n%s", outs[0])
	}
}

// TestRuntimeErrorExitsOne: a failure inside an architecture's run is a
// runtime error (exit 1) naming the architecture, not a usage error.
func TestRuntimeErrorExitsOne(t *testing.T) {
	series := filepath.Join(t.TempDir(), "nosuch", "s.jsonl")
	code, _, stderr := clitest.Run(t, append(tiny, "-arch", "baseline", "-series-out", series, "-sample-every", "1000")...)
	if code != 1 || !strings.HasPrefix(stderr, "bfsim: baseline: ") || strings.Contains(stderr, "Usage of") {
		t.Fatalf("exit %d, want 1 with a bfsim: baseline: diagnostic; stderr:\n%s", code, stderr)
	}
}
