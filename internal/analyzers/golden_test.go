package analyzers

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// wantRe matches the expectation comments in fixtures:  // want "regex"
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// dirRe matches the package-directory directive used by analyzers with
// allowlists:  // vet:dir internal/cache
var dirRe = regexp.MustCompile(`// vet:dir (\S+)`)

// loadTestModule loads the real module once per test binary: fixtures
// type-check against it, so an import of atum/internal/micro in a
// fixture resolves to the genuine Machine type.
var loadTestModule = sync.OnceValues(func() (*Module, error) {
	return LoadModule(filepath.Join("..", ".."))
})

// TestGolden runs each analyzer over its fixture directory. Every
// finding must match a same-line `// want "regex"` comment and every
// want comment must be hit — the analysistest contract, re-implemented
// over the stdlib parser and type checker.
func TestGolden(t *testing.T) {
	mod, err := loadTestModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			files, err := filepath.Glob(filepath.Join("testdata", "src", a.Name, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no fixtures for %s: %v", a.Name, err)
			}
			for _, path := range files {
				runGoldenFile(t, mod, a, path)
			}
		})
	}
}

func runGoldenFile(t *testing.T, mod *Module, a *Analyzer, path string) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	dir := "testpkg"
	if m := dirRe.FindSubmatch(src); m != nil {
		dir = string(m[1])
	}
	type want struct {
		re  *regexp.Regexp
		hit bool
	}
	wants := map[int][]*want{} // line -> expectations
	for i, line := range strings.Split(string(src), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
			}
			wants[i+1] = append(wants[i+1], &want{re: re})
		}
	}

	f, err := parser.ParseFile(mod.Fset, path, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	pkg := mod.CheckExtra(dir, []*ast.File{f})
	var findings []Finding
	if a.Run != nil {
		a.Run(&Pass{
			Fset: mod.Fset, Dir: pkg.Dir, Files: pkg.Files,
			Pkg: pkg.Types, Info: pkg.Info,
			findings: &findings, analyzer: a.Name,
		})
	}
	if a.RunModule != nil {
		a.RunModule(&ModulePass{
			Fset: mod.Fset, Pkgs: []*Package{pkg},
			findings: &findings, analyzer: a.Name,
		})
	}

	for _, fd := range findings {
		matched := false
		for _, w := range wants[fd.Pos.Line] {
			if !w.hit && w.re.MatchString(fd.Msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", path, fd)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: expected finding matching %q, got none", path, line, w.re)
			}
		}
	}
}

// TestRepoClean gates the codebase on its own analyzers: the whole
// module must produce zero findings. The engine runs per-package passes
// concurrently, so the CI -race run of this test doubles as the race
// gate on the analyzer engine itself.
func TestRepoClean(t *testing.T) {
	mod, err := loadTestModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunModule(mod, All()) {
		t.Errorf("%s", f)
	}
}
