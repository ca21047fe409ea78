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

// bin is the icfpsim binary TestMain builds for the tests to drive.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "icfpsim-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "icfpsim")
	out, err := exec.Command("go", "build", "-o", bin, "icfp/cmd/icfpsim").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// icfpsim runs the binary and returns its stdout, stderr and exit code.
func icfpsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// TestBadInputsExitWithSpecError pins that inputs the spec layer rejects
// end the run with exit status 2 and the spec's message — not a panic,
// and not a silent simulation of an out-of-range machine.
func TestBadInputsExitWithSpecError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "nosuch"}, `unknown SPEC benchmark "nosuch"`},
		{[]string{"-n", "-5"}, "leaves nothing of the n=149995-instruction workload to measure"},
		{[]string{"-l2lat", "0"}, "l2_hit_lat=0 out of range 1..10000"},
	} {
		stdout, stderr, code := icfpsim(t, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and a stderr naming %q",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestValidRunOutput pins one run's statistics byte for byte.
func TestValidRunOutput(t *testing.T) {
	const want = `iCFP on mcf:
  cycles              198953
  instructions         20022   (IPC 0.101)
  D$ miss/KI            94.8   L2 miss/KI 27.1
  D$ MLP                1.26   L2 MLP     1.13
  mispredicts            342
  advances               429   advance insts 18824
  rally passes          1531   rally/KI 517
  squashes               101   slice/SB overflows 0/0
  SB forwards            253   mean extra hops 0.000
  speedup over in-order: +26.1%
`
	stdout, stderr, code := icfpsim(t, "-model", "icfp", "-bench", "mcf", "-n", "20000", "-warm", "10000", "-baseline")
	if code != 0 || stdout != want {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr, stdout, want)
	}
}
