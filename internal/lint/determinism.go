package lint

import (
	"go/ast"
	"go/types"

	"ocb/internal/lint/analysis"
)

// deterministicPackages are the packages whose behaviour must be a pure
// function of the benchmark seed: workload generation, op bodies and
// Spec constructors. The engine's own timing code (packages workload and
// core) is in scope too — its legitimate wall-clock reads carry
// //ocblint:allow determinism directives, so a stray clock read in a
// transaction body cannot hide among them.
var deterministicPackages = map[string]bool{
	"oo1":        true,
	"oo7":        true,
	"hypermodel": true,
	"club":       true,
	"lewis":      true,
	"scenarios":  true,
	"query":      true,
	"workload":   true,
	"core":       true,
	"dstc":       true,
	"cluster":    true,
}

// randConstructors are the math/rand functions that build explicit,
// seedable sources — deterministic, therefore permitted. Everything else
// exported by math/rand draws from the process-global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// Determinism forbids nondeterminism sources — wall-clock reads, the
// process-global math/rand functions, crypto/rand, process identity — in
// the packages whose op streams the paper requires to be reproducible
// from the seed alone.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/time.Since/time.Until, global math/rand, crypto/rand and os.Getpid " +
		"in seed-deterministic packages (generation code, op bodies, Spec constructors); " +
		"annotate engine timing code with //ocblint:allow determinism",
	Run: runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	if !scopedTo(pass.Pkg.Path(), pass.Pkg.Name(), deterministicPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if bad, why := nondeterministic(obj); bad {
				pass.Reportf(sel.Pos(), "nondeterminism in package %s: %s — %s (draw from the seed-derived lewis source, or annotate harness timing with //ocblint:allow determinism)",
					pass.Pkg.Name(), qualifiedName(obj), why)
			}
			return true
		})
	}
	return nil
}

// nondeterministic classifies a referenced object as a nondeterminism
// source.
func nondeterministic(obj types.Object) (bool, string) {
	pkg, name := obj.Pkg().Path(), obj.Name()
	switch pkg {
	case "time":
		if _, isFunc := obj.(*types.Func); isFunc && (name == "Now" || name == "Since" || name == "Until") {
			return true, "reads the wall clock"
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions draw from the global source;
		// methods on an explicitly seeded Rand/Source are deterministic.
		if fn, isFunc := obj.(*types.Func); isFunc && !randConstructors[name] {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				return true, "draws from the process-global random source"
			}
		}
	case "crypto/rand":
		return true, "draws from the system entropy pool"
	case "os":
		if name == "Getpid" || name == "Getppid" {
			return true, "depends on process identity"
		}
	}
	return false, ""
}

// qualifiedName renders pkg.Name for diagnostics.
func qualifiedName(obj types.Object) string {
	return obj.Pkg().Name() + "." + obj.Name()
}
