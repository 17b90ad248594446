// Package analyzers contains static vet passes for this codebase itself,
// enforcing repo-specific invariants the Go compiler cannot: only the
// tracing layers touch the reserved-region accessor, PIDs are never
// silently truncated to uint8, and the concurrency invariants of the capture
// pipeline hold by construction: fields touched through sync/atomic are
// never accessed plainly, mutex-guarded fields are only reached under
// their lock, and no code reachable from the telemetry layer can charge
// simulated cycles.
//
// The framework is a deliberately small, stdlib-only analogue of
// golang.org/x/tools/go/analysis (which is not vendored here). Unlike
// the original syntactic version, passes now run over *typed* ASTs: a
// loader (load.go) type-checks the whole module in dependency order,
// resolving module-internal imports from source and the standard
// library through go/importer, so analyzers match objects and types
// rather than names. Per-package passes run concurrently (one goroutine
// per package once type checking is done); module passes see every
// package at once for call-graph reasoning.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"sync"
)

// Analyzer is one vet pass. Exactly one of Run (per-package) or
// RunModule (whole-module, for call-graph passes) must be set.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// RunModule analyzes every package of the module at once; passes
	// that need cross-package reachability (cyclepurity) use it.
	RunModule func(*ModulePass)
}

// Pass is the per-package unit of work handed to an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Dir is the slash-separated package directory relative to the
	// module root (e.g. "internal/cache"); analyzers use it for
	// package-allowlist rules.
	Dir   string
	Files []*ast.File
	// Pkg and Info are the go/types results for this package. Type
	// checking is tolerant, so objects that failed to resolve are
	// simply absent: passes treat missing information as unknown.
	Pkg  *types.Package
	Info *types.Info

	findings *[]Finding
	analyzer string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		Pos:      p.Fset.Position(pos),
		Msg:      fmt.Sprintf(format, args...),
	})
}

// ModulePass hands a module analyzer every package at once.
type ModulePass struct {
	Fset *token.FileSet
	Pkgs []*Package

	findings *[]Finding
	analyzer string
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		Pos:      p.Fset.Position(pos),
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Finding is one diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg, f.Analyzer)
}

// All returns every registered analyzer. Drivers (cmd/atum-vet) derive
// their usage text from this list, so it cannot go stale.
func All() []*Analyzer {
	return []*Analyzer{
		ReservedAccessor, PIDTrunc, AtomicField,
		GuardedBy, CyclePurity,
	}
}

// RunDir loads and type-checks the module rooted at root and applies
// the analyzers: per-package passes concurrently across packages,
// module passes over the whole set. root should be the module root so
// that package allowlists, which are expressed as module-relative
// directories, line up. Findings come back sorted by file, line, then
// analyzer.
func RunDir(root string, analyzers []*Analyzer) ([]Finding, error) {
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	return RunModule(m, analyzers), nil
}

// RunModule applies the analyzers to an already-loaded module.
func RunModule(m *Module, analyzers []*Analyzer) []Finding {
	// Per-package passes are independent once type checking is done:
	// fan them out one goroutine per package, each appending to its own
	// slice. (The -race CI run of this package exercises exactly this.)
	perPkg := make([][]Finding, len(m.Pkgs))
	var wg sync.WaitGroup
	for i, pkg := range m.Pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			runPackagePasses(m.Fset, pkg, analyzers, &perPkg[i])
		}(i, pkg)
	}
	wg.Wait()

	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(&ModulePass{Fset: m.Fset, Pkgs: m.Pkgs, findings: &findings, analyzer: a.Name})
		}
	}
	sortFindings(findings)
	return findings
}

func runPackagePasses(fset *token.FileSet, pkg *Package, analyzers []*Analyzer, out *[]Finding) {
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		a.Run(&Pass{
			Fset: fset, Dir: pkg.Dir, Files: pkg.Files,
			Pkg: pkg.Types, Info: pkg.Info,
			findings: out, analyzer: a.Name,
		})
	}
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
}

// ---- shared type-query helpers ----

// typeOf returns the type of e, or nil when type checking did not
// resolve it.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// namedFrom unwraps pointers and aliases down to a named type, or nil.
func namedFrom(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type pkgSuffix.name, where pkgSuffix matches the end of the declaring
// package path ("internal/trace" matches "atum/internal/trace").
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	n := namedFrom(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && pathHasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// shortFile trims a file path to its base name for compact diagnostics.
func shortFile(path string) string {
	return filepath.Base(path)
}

// pathHasSuffix reports whether import path p ends with the given
// slash-separated suffix on a path-component boundary.
func pathHasSuffix(p, suffix string) bool {
	if p == suffix {
		return true
	}
	return len(p) > len(suffix) && p[len(p)-len(suffix)-1] == '/' && p[len(p)-len(suffix):] == suffix
}

// calleeFunc resolves the function or method a call expression invokes,
// when it is a direct (non-function-value) call.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// fieldVarOf resolves a selector expression to the struct field it
// selects, or nil when it is not a field selection.
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if info == nil {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	// Package-qualified field access (pkg.Global.Field) resolves through
	// Uses rather than Selections only for the ident case; selectors on
	// package names select objects, not fields.
	return nil
}
