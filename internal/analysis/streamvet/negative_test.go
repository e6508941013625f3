package streamvet

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededViolations is the negative CI check: each testdata/seeded
// package plants exactly one violation, and the matching analyzer must
// report it. If an analyzer regresses into reporting nothing, this test
// fails instead of the whole-repo scan silently passing everything.
func TestSeededViolations(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
		contains string
	}{
		{
			dir:      "poolretain",
			analyzer: NewPoolRetain([]string{"seedpoolretain.Event"}),
			contains: "stored in struct field",
		},
		{
			dir:      "processbatch",
			analyzer: NewPoolRetain([]string{"seedprocessbatch.Event"}),
			contains: "stored in struct field or package variable last",
		},
		{
			dir:      "msgexhaustive",
			analyzer: NewMsgExhaustive("seedmsgexhaustive.kind"),
			contains: "missing cases for kindBarrier",
		},
		{
			dir:      "wallclock",
			analyzer: NewWallClock("seedwallclock"),
			contains: "time.Now in event-time package seedwallclock",
		},
		{
			dir:      "lockcross",
			analyzer: NewLockCross("seedlockcross"),
			contains: "channel send while holding b.mu",
		},
		{
			dir:      "maporder",
			analyzer: NewMapOrder([]string{"seedmaporder"}),
			contains: "collected from map iteration",
		},
		{
			dir:      "errdrop",
			analyzer: NewErrDrop([]string{"seederrdrop"}),
			contains: "discarded error from os.(*File).Sync",
		},
		{
			dir:      "chanblock",
			analyzer: NewChanBlock("seedchanblock"),
			contains: "call to seedchanblock.(*box).recv while holding b.mu",
		},
		{
			dir:      "goroleak",
			analyzer: NewGoroLeak("seedgoroleak"),
			contains: "goroutine is not tied to shutdown",
		},
	}
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join(root, "internal/analysis/streamvet/testdata/seeded", tc.dir)
			pkg, err := LoadDir(root, dir)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := RunAnalyzers([]*Analyzer{tc.analyzer}, []*Package{pkg})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != 1 {
				t.Fatalf("%s on seeded package: got %d diagnostics, want exactly 1: %v",
					tc.analyzer.Name, len(diags), diags)
			}
			if !strings.Contains(diags[0].Message, tc.contains) {
				t.Errorf("%s diagnostic %q does not contain %q", tc.analyzer.Name, diags[0].Message, tc.contains)
			}
		})
	}
}
