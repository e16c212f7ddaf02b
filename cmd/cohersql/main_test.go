package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs cohersql's main instead of the tests when the test binary
// is re-executed with COHERSQL_MAIN=1, so tests can observe exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("COHERSQL_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCohersql runs cohersql with args and returns its stdout, stderr and
// exit code.
func runCohersql(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "COHERSQL_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

func TestQueryExitStatus(t *testing.T) {
	out, _, code := runCohersql(t, "-q", "SELECT COUNT(*) FROM D")
	if code != 0 || !strings.Contains(out, "count") {
		t.Fatalf("good query: exit %d, output %q", code, out)
	}
	_, errOut, code := runCohersql(t, "-q", "SELECT nope FROM nosuch")
	if code == 0 || !strings.Contains(errOut, "no such table") {
		t.Fatalf("failing query: exit %d, stderr %q", code, errOut)
	}
}
