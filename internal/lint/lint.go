// Package lint is ocblint: a suite of project-specific static analyzers
// that prove, at go vet time, the invariants OCB's credibility rests on
// and which were previously enforced only at runtime by goldens and
// AllocsPerRun gates:
//
//   - determinism: no wall clocks or global math/rand in the packages
//     whose output must be a pure function of the seed (workload
//     generation, op bodies, Spec constructors).
//   - senterr: backend sentinel errors are compared with errors.Is, never
//     == or string matching, and the wire status-code mapping stays
//     exhaustive over the sentinel set.
//   - locksafe: no file or network I/O while a store or buffer-pool
//     lock is held, and no lock copied by value.
//   - allocfree: functions annotated //ocblint:allocfree contain no
//     construct that obviously heap-allocates, complementing the runtime
//     AllocsPerRun gates with path-independent coverage.
//
// Directives (in comments, anywhere the analyzers look):
//
//	//ocblint:allow <analyzer>[,<analyzer>] [-- reason]
//	    Suppresses the named analyzers on the directive's line and the
//	    next line; in a function's doc comment, on the whole function.
//	//ocblint:allocfree [-- reason]
//	    In a function's doc comment: opts the function into the allocfree
//	    check (the hot-path annotation).
//	//ocblint:iolock [-- reason]
//	    On a mutex field or variable declaration: this lock exists to
//	    serialize I/O (like waldisk's logMu), so locksafe permits blocking
//	    calls while it is held.
//
// The analyzers are built on internal/lint/analysis, a stdlib-only subset
// of golang.org/x/tools/go/analysis (this repository takes no external
// dependencies); the shapes match upstream so the suite could be rebased
// onto the real multichecker without touching analyzer code.
package lint

import (
	"go/token"
	"sort"

	"ocb/internal/lint/analysis"
	"ocb/internal/lint/load"
)

// Analyzers returns the full ocblint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Determinism, SentErr, LockSafe, AllocFree}
}

// Finding is one post-suppression diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Run applies the analyzers to one loaded package, filters findings
// through the package's //ocblint:allow directives, and returns them
// sorted by position.
func Run(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	sup := newSuppressor(pkg.Fset, pkg.Files)
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			if sup.allows(name, d.Pos) {
				return
			}
			findings = append(findings, Finding{
				Analyzer: name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
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
	return findings, nil
}
