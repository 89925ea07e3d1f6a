// Package clitest runs a cmd/ main inside its own test binary, so a
// table test can drive the real command line — flag parsing, usage text
// and exit status — with no build step and no test hook in the command.
//
// The command's TestMain hands control to Main; Run then re-executes
// the test binary with an environment variable that makes Main call the
// command's main instead of the tests.
package clitest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const asCommand = "BABELFISH_CLITEST_AS_COMMAND"

// Main runs main when the test binary was re-executed by Run, and the
// tests otherwise. Call it from TestMain.
func Main(m *testing.M, main func()) {
	if os.Getenv(asCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run executes the command with args and returns its exit status, its
// stdout and its stderr.
func Run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	c := exec.Command(os.Args[0], args...)
	c.Env = append(os.Environ(), asCommand+"=1")
	c.Dir = t.TempDir()
	var out, errOut bytes.Buffer
	c.Stdout, c.Stderr = &out, &errOut
	err := c.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("running %v: %v", args, err)
	}
	return code, out.String(), errOut.String()
}

// ExpectUsage runs each argument list as a subtest and checks that the
// command rejects it as a flag mistake: exit status 2, a "<cmd>: "
// diagnostic and the usage text.
func ExpectUsage(t *testing.T, cmd string, cases ...[]string) {
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, _, stderr := Run(t, args...)
			if code != 2 || !strings.HasPrefix(stderr, cmd+": ") || !strings.Contains(stderr, "Usage of") {
				t.Fatalf("exit %d, want 2 with a %q diagnostic and the usage text; stderr:\n%s", code, cmd+": ", stderr)
			}
		})
	}
}
