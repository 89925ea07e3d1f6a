package main

import (
	"strings"
	"testing"

	"babelfish/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestUsageErrors: an unknown app, an unusable scale or a step count
// that is not positive is a flag mistake — usage text and exit status 2.
func TestUsageErrors(t *testing.T) {
	clitest.ExpectUsage(t, "bfworkload",
		[]string{"-app", "nosuch"},
		[]string{"-scale", "NaN"},
		[]string{"-scale", "Inf"},
		[]string{"-scale", "-1"},
		[]string{"-steps", "0"},
		[]string{"-steps", "-5"},
	)
}

// TestSamplesEveryApp: each app, and the FaaS group, samples its
// access stream and exits 0.
func TestSamplesEveryApp(t *testing.T) {
	for _, app := range []string{"mongodb", "arangodb", "httpd", "graphchi", "fio", "faas"} {
		code, stdout, stderr := clitest.Run(t, "-app", app, "-steps", "2000", "-scale", "0.05")
		if code != 0 || !strings.Contains(stdout, app+" access-stream sample") {
			t.Errorf("%s: exit %d; stdout:\n%s\nstderr:\n%s", app, code, stdout, stderr)
		}
	}
}
