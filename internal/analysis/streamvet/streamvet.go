// Package streamvet is a static-analysis suite that enforces the engine's
// runtime invariants at compile time. PRs 2–3 made correctness depend on
// conventions the compiler cannot see:
//
//   - pooled []Event batches must not be retained past the exchange
//     (poolretain),
//   - every switch over an engine kind type must handle every kind or fail
//     loudly in a default — a silently dropped barrier or watermark wedges
//     alignment (msgexhaustive),
//   - event-time code must never read the wall clock, or the crash-matrix
//     and output-equality tests stop being deterministic (wallclock),
//   - a mutex held across a channel operation is the deadlock shape that
//     backpressure makes reachable (lockcross).
//
// The suite is built on the standard library only (go/ast, go/types, with
// type information from `go list -export` build-cache export data), so it
// mirrors the golang.org/x/tools/go/analysis shape — Analyzer, Pass,
// Diagnostic — without requiring the module. It runs standalone:
//
//	go run ./cmd/streamvet ./...
//
// False positives in genuinely processing-time or ownership-transfer code
// are silenced with an annotation on (or immediately above) the offending
// line:
//
//	//streamvet:allow <analyzer> [<analyzer>...] — reason
package streamvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //streamvet:allow annotations.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and reports violations through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// allow maps file name → line → analyzer name → annotation entry,
	// collected from //streamvet:allow comments. Entries are shared between
	// the annotation's own line and the following one, and record whether
	// they ever suppressed a diagnostic (unused entries are stale).
	allow map[string]map[int]map[string]*allowEntry

	// facts is the run-wide fact store shared by every pass (nil when an
	// analyzer is driven outside Run, e.g. in focused unit tests).
	facts *factStore

	diagnostics []Diagnostic
}

// allowEntry is one (annotation, analyzer) pair from a //streamvet:allow
// comment.
type allowEntry struct {
	analyzer string
	pos      token.Position // position of the annotation comment
	used     bool           // did it ever suppress a diagnostic?
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a violation at pos unless a //streamvet:allow annotation
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowedAt reports whether an annotation for this pass's analyzer covers the
// given source position, marking the annotation used so the stale-allow check
// knows it still earns its keep.
func (p *Pass) allowedAt(pos token.Position) bool {
	lines := p.allow[pos.Filename]
	if lines == nil {
		return false
	}
	e := lines[pos.Line][p.Analyzer.Name]
	if e == nil {
		return false
	}
	e.used = true
	return true
}

// allowPrefix introduces a streamvet annotation comment.
const allowPrefix = "//streamvet:allow"

// collectAllows indexes every //streamvet:allow annotation in the package. A
// trailing annotation covers its own line; a standalone annotation comment
// additionally covers the following line, so it can sit above a long
// statement. Both lines share one entry, so suppressing through either marks
// the annotation used.
func collectAllows(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]*allowEntry {
	out := make(map[string]map[int]map[string]*allowEntry)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				names := strings.TrimPrefix(c.Text, allowPrefix)
				// Everything after an em dash or "--" is a human reason.
				if i := strings.IndexAny(names, "—"); i >= 0 {
					names = names[:i]
				}
				if i := strings.Index(names, "--"); i >= 0 {
					names = names[:i]
				}
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]*allowEntry)
					out[pos.Filename] = lines
				}
				add := func(line int, e *allowEntry) {
					set := lines[line]
					if set == nil {
						set = make(map[string]*allowEntry)
						lines[line] = set
					}
					set[e.analyzer] = e
				}
				for _, name := range strings.Fields(names) {
					e := &allowEntry{analyzer: name, pos: pos}
					add(pos.Line, e)
					add(pos.Line+1, e)
				}
			}
		}
	}
	return out
}

// StaleAllowName is the analyzer name under which unused //streamvet:allow
// annotations are reported. It is a framework check, not a Suite member: an
// annotation that suppresses nothing is an escape that has rotted — either
// the violation it silenced was fixed (delete the annotation) or the
// analyzer regressed (which the seeded-violation tests catch separately).
const StaleAllowName = "staleallow"

// Result is the outcome of one Run: the combined diagnostics plus every fact
// exported along the way (for the -facts debug dump and fact-propagation
// tests).
type Result struct {
	Diagnostics []Diagnostic
	Facts       []FactRecord
}

// Run applies every analyzer to every package, in the order given — Load
// returns dependency order, which is what makes cross-package facts work —
// and returns the combined diagnostics (sorted by position) and exported
// facts. After the analyzers finish with a package, any //streamvet:allow
// annotation naming a ran analyzer that suppressed nothing is reported under
// StaleAllowName.
func Run(analyzers []*Analyzer, pkgs []*Package) (*Result, error) {
	facts := newFactStore()
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				allow:     allows,
				facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			diags = append(diags, pass.diagnostics...)
		}
		diags = append(diags, staleAllows(allows, ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return &Result{Diagnostics: diags, Facts: facts.records()}, nil
}

// RunAnalyzers is Run without the fact/stale plumbing in the signature, kept
// for callers that only consume diagnostics.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	res, err := Run(analyzers, pkgs)
	if err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// staleAllows reports every allow annotation in one package that names an
// analyzer in the run set but suppressed no diagnostic. Annotations naming
// analyzers outside the run set (e.g. under -run subsets) are not judged —
// the analyzer that would use them never looked.
func staleAllows(allows map[string]map[int]map[string]*allowEntry, ran map[string]bool) []Diagnostic {
	seen := make(map[*allowEntry]bool)
	var out []Diagnostic
	for _, lines := range allows {
		for _, byName := range lines {
			for _, e := range byName {
				if seen[e] || e.used || !ran[e.analyzer] {
					seen[e] = true
					continue
				}
				seen[e] = true
				// A stale report can itself be allowed (annotation churn
				// during a refactor): honor //streamvet:allow staleallow on
				// the same line.
				if se := byName[StaleAllowName]; se != nil {
					se.used = true
					continue
				}
				out = append(out, Diagnostic{
					Pos:      e.pos,
					Analyzer: StaleAllowName,
					Message: fmt.Sprintf(
						"//streamvet:allow %s suppresses no %s diagnostic; the escape has rotted — remove it (or fix the annotation)",
						e.analyzer, e.analyzer),
				})
			}
		}
	}
	return out
}

// Suite returns the eight analyzers configured for this repository's engine
// types and packages.
func Suite() []*Analyzer {
	return []*Analyzer{
		NewPoolRetain([]string{"repro/internal/core.Event"}),
		NewMsgExhaustive(
			"repro/internal/core.msgKind",
			"repro/internal/core.PartitionKind",
			"repro/internal/chaos.CrashPoint",
		),
		NewWallClock(
			"repro/internal/core",
			"repro/internal/window",
			"repro/internal/cep",
			"repro/internal/eventtime",
		),
		NewLockCross(
			"repro/internal/core",
			"repro/internal/eventtime",
		),
		NewMapOrder(
			[]string{
				"repro/internal/core",
				"repro/internal/state",
				"repro/internal/lsm",
				"repro/internal/window",
				"repro/internal/cep",
			},
			"repro/internal/core.(Context).Emit",
			"repro/internal/core.(BatchContext).EmitBatch",
			"repro/internal/core.(SourceContext).Collect",
			"repro/internal/core.(SourceContext).CollectBatch",
			"repro/internal/core.(SnapshotStore).Save",
		),
		NewErrDrop(
			[]string{
				"repro/internal/core",
				"repro/internal/state",
				"repro/internal/lsm",
			},
			"repro/internal/core.(SnapshotStore).Save",
			"repro/internal/core.(SnapshotStore).Complete",
			"repro/internal/core.(FileLinkingStore).LinkFile",
			"repro/internal/core.(DiscardableStore).Discard",
			"repro/internal/lsm.(*wal).append",
		),
		NewChanBlock(
			"repro/internal/core",
			"repro/internal/eventtime",
		),
		NewGoroLeak(
			"repro/internal/core",
			"repro/internal/elastic",
			"repro/internal/obsv",
			"repro/internal/ha",
		),
	}
}

// qualifiedTypeName renders a named type as "pkgpath.Name" for matching
// against analyzer configuration. Unnamed types return "".
func qualifiedTypeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name() // universe scope (error, ...)
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
