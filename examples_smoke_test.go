package repro

// Smoke tests that every example program and command-line tool builds and
// runs to completion. Guarded by -short since each invocation compiles a
// binary.

import (
	"os/exec"
	"strings"
	"testing"
)

func runGo(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s failed: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example executions in -short mode")
	}
	for _, tc := range []struct {
		path string
		want string
	}{
		{"./examples/quickstart", "windowed word count"},
		{"./examples/frauddetect", "fraud detection pipeline"},
		{"./examples/ridesharing", "ride sharing pipeline"},
		{"./examples/statefun", "stateful-functions checkout"},
		{"./examples/netmon", "network monitoring pipeline"},
	} {
		t.Run(tc.path, func(t *testing.T) {
			out := runGo(t, "run", tc.path)
			if !strings.Contains(out, tc.want) {
				t.Fatalf("%s output missing %q:\n%s", tc.path, tc.want, out)
			}
		})
	}
}

func TestCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command executions in -short mode")
	}
	t.Run("cqlrun", func(t *testing.T) {
		out := runGo(t, "run", "./cmd/cqlrun", "-n", "50",
			"RSTREAM (SELECT proto, COUNT(*) AS n FROM flows [ROWS 20] GROUP BY proto)")
		if !strings.Contains(out, "rows printed") {
			t.Fatalf("cqlrun output unexpected:\n%s", out)
		}
	})
	t.Run("evolution-tiny", func(t *testing.T) {
		out := runGo(t, "run", "./cmd/evolution")
		if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "cloud=8 ml=8 graph=4") {
			t.Fatalf("evolution output unexpected:\n%s", out)
		}
	})
	t.Run("serve-tiny", func(t *testing.T) {
		// Exercises the stream SQL front door end to end: tapped pipeline,
		// TCP subscribers with continuous CQL queries, live point queries.
		out := runGo(t, "run", "./cmd/serve", "-n", "4000", "-clients", "3")
		for _, want := range []string{
			"stream SQL front door on",
			"stream SQL front door demo",
			"true (aggregate stream across 2 subscribers)",
			"served streams/tables: [flows] / [src_bytes]",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("serve output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("observe-tiny", func(t *testing.T) {
		// The command self-scrapes /metrics at the end, so this exercises the
		// introspection HTTP path end to end.
		out := runGo(t, "run", "./cmd/observe", "-n", "5000", "-checkpoint-every", "1000", "-addr", "127.0.0.1:0")
		for _, want := range []string{"observability server on http://", "job finished", "node_win_1s_in 5000", "checkpoint_completed"} {
			if !strings.Contains(out, want) {
				t.Fatalf("observe output missing %q:\n%s", want, out)
			}
		}
	})
}
