package lint_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocb/internal/lint"
	"ocb/internal/lint/analysistest"
	"ocb/internal/lint/load"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, lint.Determinism, "testdata/determinism", "oo1", "plotter")
}

func TestSentErr(t *testing.T) {
	analysistest.Run(t, lint.SentErr, "testdata/senterr", "client", "wire", "wireok")
}

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, lint.LockSafe, "testdata/locksafe", "waldisk", "util", "btree")
}

func TestAllocFree(t *testing.T) {
	analysistest.Run(t, lint.AllocFree, "testdata/allocfree", "hot")
}

// TestModuleClean runs the whole suite over every package of the module,
// as CI's `go run ./cmd/ocblint ./...` does, so `go test ./...` enforces
// the same invariants: a finding anywhere in the tree (an
// //ocblint:allocfree function that allocates, a wall-clock read in a
// seed-deterministic package) fails here.
func TestModuleClean(t *testing.T) {
	loader, err := load.NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Packages("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		findings, err := lint.Run(pkg, lint.Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, f := range findings {
			t.Errorf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
		}
	}
}

// TestModuleGofmt: every .go file of the root module outside testdata is
// gofmt-clean, as CI's `gofmt -l .` demands. Nested modules (a directory
// with its own go.mod), testdata and directories the go tool ignores
// (leading "." or "_", such as build caches) are skipped.
func TestModuleGofmt(t *testing.T) {
	const root = "../.."
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		formatted, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-clean", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no .go files found under the module root")
	}
}
