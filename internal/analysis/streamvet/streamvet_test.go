package streamvet

import (
	"go/token"
	"path/filepath"
	"testing"
)

// golden runs one analyzer against its testdata package and reports every
// mismatch between diagnostics and `// want` comments.
func golden(t *testing.T, dir string, a *Analyzer) {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	problems, err := CheckGolden(root, filepath.Join(root, "internal/analysis/streamvet/testdata", dir), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestPoolRetainGolden(t *testing.T) {
	golden(t, "poolretain", NewPoolRetain([]string{"poolretain.Event"}))
}

func TestMsgExhaustiveGolden(t *testing.T) {
	golden(t, "msgexhaustive", NewMsgExhaustive("msgexhaustive.kind", "msgexhaustive.faultPoint"))
}

func TestWallClockGolden(t *testing.T) {
	golden(t, "wallclock", NewWallClock("wallclock"))
}

func TestLockCrossGolden(t *testing.T) {
	golden(t, "lockcross", NewLockCross("lockcross"))
}

func TestMapOrderGolden(t *testing.T) {
	golden(t, "maporder", NewMapOrder([]string{"maporder"}, "maporder.(Emitter).Emit"))
}

func TestErrDropGolden(t *testing.T) {
	golden(t, "errdrop", NewErrDrop([]string{"errdrop"}, "errdrop.(Store).Save"))
}

func TestChanBlockGolden(t *testing.T) {
	golden(t, "chanblock", NewChanBlock("chanblock"))
}

func TestGoroLeakGolden(t *testing.T) {
	golden(t, "goroleak", NewGoroLeak("goroleak"))
}

// TestAllowAnnotationScope pins the annotation contract: a trailing
// annotation covers its line, a standalone annotation covers the next line,
// and an annotation for one analyzer does not silence another.
func TestAllowAnnotationScope(t *testing.T) {
	e := &allowEntry{analyzer: "wallclock"}
	allows := map[string]map[int]map[string]*allowEntry{
		"f.go": {
			10: {"wallclock": e},
			11: {"wallclock": e},
		},
	}
	pass := &Pass{Analyzer: &Analyzer{Name: "wallclock"}, allow: allows}
	if pass.allowedAt(token.Position{Filename: "f.go", Line: 9}) {
		t.Error("line 9 must not be covered")
	}
	if e.used {
		t.Error("a miss must not mark the annotation used")
	}
	for _, line := range []int{10, 11} {
		if !pass.allowedAt(token.Position{Filename: "f.go", Line: line}) {
			t.Errorf("line %d must be covered", line)
		}
	}
	if !e.used {
		t.Error("suppressing must mark the annotation used")
	}
	if pass.allowedAt(token.Position{Filename: "f.go", Line: 12}) {
		t.Error("line 12 must not be covered")
	}
	other := &Pass{Analyzer: &Analyzer{Name: "lockcross"}, allow: allows}
	if other.allowedAt(token.Position{Filename: "f.go", Line: 10}) {
		t.Error("wallclock annotation must not silence lockcross")
	}
}

// TestSuiteComposition pins the suite: eight analyzers under their contract
// names, so a config regression (dropping one, renaming one) fails here.
func TestSuiteComposition(t *testing.T) {
	want := []string{
		"poolretain", "msgexhaustive", "wallclock", "lockcross",
		"maporder", "errdrop", "chanblock", "goroleak",
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("Suite[%d] (%s) has no Doc", i, a.Name)
		}
	}
}
