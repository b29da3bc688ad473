package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started under
// the command's name, which is how run executes a subcommand: in its own
// process, so exit statuses and output streams are the real ones.
func TestMain(m *testing.M) {
	if os.Args[0] == "deeprecsys" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes `deeprecsys <args>` with stdin read from the named testdata
// file ("" = none) and returns its stdout, its stderr and its exit status.
func run(t *testing.T, stdin, args string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, strings.Fields(args)...)
	cmd.Args[0] = "deeprecsys"
	if stdin != "" {
		f, err := os.Open(filepath.Join("testdata", stdin))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cmd.Stdin = f
	}
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestSubcommandsKeepTheirToolsBytes holds loadgen, replay and sweep to the
// stdout of the standalone commands they replaced: every testdata file was
// captured from those binaries with the same arguments (replay's trace
// input is loadgen's default output). The models files were captured from
// deeprecsys itself before its shape column moved to model.Shapes.
func TestSubcommandsKeepTheirToolsBytes(t *testing.T) {
	for _, c := range []struct{ args, stdin, golden string }{
		{"loadgen", "", "loadgen_default.csv"},
		{"loadgen -n 1000 -dist lognormal:4.0,0.9 -seed 7", "", "loadgen_lognormal.csv"},
		{"loadgen -n 1000 -arrivals diurnal:0.5,10s", "", "loadgen_diurnal.csv"},
		{"replay -workload fixed:100 -rate 600 -n 2000", "", "replay_fixed.txt"},
		{"replay", "loadgen_default.csv", "replay_trace.txt"},
		{"replay -gpu -batch 512 -threshold 256", "loadgen_default.csv", "replay_trace_gpu.txt"},
		{"sweep -queries 600", "", "sweep_cpu.txt"},
		{"sweep -gpu -batch 512 -thresholds 1,128,256,512 -queries 600", "", "sweep_gpu.txt"},
		{"models", "", "models_default.txt"},
		{"models -rows 1000000 -lookups 40", "", "models_scaled.txt"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := run(t, c.stdin, c.args)
		if code != 0 || stdout != string(want) {
			t.Errorf("deeprecsys %s: exit %d, stderr %q; stdout differs from testdata/%s:\n%.2000s",
				c.args, code, stderr, c.golden, stdout)
		}
	}
}

// TestQueryCountBelowOne: every subcommand that generates a stream refuses
// -n below one as a usage error, with one message.
func TestQueryCountBelowOne(t *testing.T) {
	for _, c := range []struct{ args, got string }{
		{"loadgen -n -5", "-5"},
		{"loadgen -n 0", "0"},
		{"replay -workload fixed:10 -n -5", "-5"},
		{"serve -n -5", "-5"},
	} {
		stdout, stderr, code := run(t, "", c.args)
		if want := "workload: need at least one query, got " + c.got + "\n"; code != 2 || stdout != "" || stderr != want {
			t.Errorf("deeprecsys %s: exit %d, stdout %q, stderr %q; want exit 2 and stderr %q", c.args, code, stdout, stderr, want)
		}
	}
}
