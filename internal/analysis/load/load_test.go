package load_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kjoin/internal/analysis/load"
)

func TestLoadSinglePackage(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath() != "kjoin" {
		t.Fatalf("module path = %q, want kjoin", l.ModulePath())
	}
	pkgs, err := l.Load("internal/mathx")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "kjoin/internal/mathx" {
		t.Fatalf("got %d packages, first %v", len(pkgs), pkgs)
	}
	if pkgs[0].Types == nil || pkgs[0].Types.Scope().Lookup("Cmp") == nil {
		t.Fatal("mathx.Cmp not in loaded package scope")
	}
}

func TestLoadRecursivePattern(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("internal/analysis/...")
	if err != nil {
		t.Fatal(err)
	}
	// The framework, loader, harness and five analyzers — and never the
	// testdata directories, which hold deliberately broken packages.
	if len(pkgs) < 8 {
		t.Fatalf("expected at least 8 packages under internal/analysis, got %d", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil {
			t.Errorf("%s: no type information", p.Path)
		}
		for i := range p.Path {
			if p.Path[i:] == "testdata" {
				t.Errorf("testdata package leaked into Load: %s", p.Path)
			}
		}
	}
}

// TestLoadRecursiveStopsAtNestedModule: bench/ has its own go.mod, so a
// module-wide ./... must not load its packages (the go tool's rule).
func TestLoadRecursiveStopsAtNestedModule(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if p.Path == l.ModulePath()+"/bench" {
			t.Errorf("nested module package leaked into Load: %s", p.Path)
		}
	}
}

func TestLoadMissingPackage(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("internal/no_such_package"); err == nil {
		t.Fatal("loading a nonexistent package succeeded")
	}
}

func TestLoadMalformedRecursivePattern(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("no/such/dir/..."); err == nil {
		t.Fatal("walking a nonexistent pattern base succeeded")
	}
}

func TestLoadTypeErrorPackage(t *testing.T) {
	dir := t.TempDir()
	src := "package broken\n\nfunc F() int { return \"not an int\" }\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir(dir, "broken")
	if err == nil {
		t.Fatal("type-error package loaded without error")
	}
	if !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("error does not name the type-check phase: %v", err)
	}
}

func TestLoadParseErrorPackage(t *testing.T) {
	dir := t.TempDir()
	src := "package broken\n\nfunc F( {\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir(dir, "broken"); err == nil {
		t.Fatal("syntax-error package loaded without error")
	}
}

// TestAllDependencyOrder loads a package with module-internal imports
// and checks the loader's completion order: every dependency must
// appear in All() before its importer, and the importer's Imports list
// must carry the resolved dependency package.
func TestAllDependencyOrder(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("internal/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	wal := pkgs[0]
	var foundDep bool
	for _, dep := range wal.Imports {
		if dep.Path == "kjoin/internal/fault" {
			foundDep = true
		}
	}
	if !foundDep {
		t.Fatal("wal.Imports does not include kjoin/internal/fault")
	}
	idx := make(map[string]int)
	for i, p := range l.All() {
		idx[p.Path] = i
	}
	for _, p := range l.All() {
		for _, dep := range p.Imports {
			di, ok := idx[dep.Path]
			if !ok {
				t.Fatalf("%s imports %s, which is missing from All()", p.Path, dep.Path)
			}
			if di >= idx[p.Path] {
				t.Errorf("All() lists %s (index %d) before its dependency %s (index %d)",
					p.Path, idx[p.Path], dep.Path, di)
			}
		}
	}
}
