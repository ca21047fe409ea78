package main_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the tracetool binary TestMain builds for the tests to drive.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tracetool-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "tracetool")
	out, err := exec.Command("go", "build", "-o", bin, "icfp/cmd/tracetool").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// tracetool runs the binary and returns its stdout, stderr and exit code.
func tracetool(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return o.String(), e.String(), code
}

// TestBadGenExitsWithSpecError pins that a -gen the spec layer rejects,
// a positional argument or an undefined flag such as -o ends the run
// with exit status 2 and a message naming the fault, not a panic.
func TestBadGenExitsWithSpecError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gen", "nosuch"}, `unknown SPEC benchmark "nosuch"`},
		{[]string{"-gen", "mcf", "-n", "0"}, `SPEC workload "mcf" has n=0`},
		{[]string{"mcf.trc"}, "need -gen NAME and no arguments"},
		{[]string{"-gen", "mcf", "mcf.trc"}, "need -gen NAME and no arguments"},
		{[]string{"-gen", "mcf", "-o", "mcf.trc"}, "flag provided but not defined: -o"},
	} {
		stdout, stderr, code := tracetool(t, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and a stderr naming %q",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestRoundTripInfo pins one profile's characterization byte for byte.
func TestRoundTripInfo(t *testing.T) {
	const want = `trace "mcf": 318 instructions, 80 static PCs
mix:
  alu         150  (47.2%)
  imul          3  (0.9%)
  load         95  (29.9%)
  store        26  (8.2%)
  br           44  (13.8%)
data footprint: 78 distinct 64B lines (4.9 KB)
branches: 44, 90.9% taken
`
	stdout, stderr, code := tracetool(t, "-gen", "mcf", "-n", "300")
	if code != 0 || stdout != want {
		t.Errorf("-gen: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr, stdout, want)
	}
}
