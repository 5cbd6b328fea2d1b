package lint

import (
	"go/ast"
	"strconv"

	"lvmajority/internal/lint/analysis"
)

// DetRand forbids non-deterministic sources inside engine packages: any use
// of math/rand or math/rand/v2 (including rand.Seed, the global functions,
// and the types — only replicate-keyed rng.NewStream may mint streams) and
// the wall-clock reads time.Now / time.Since / time.Until. Engine packages
// are the internal/{protocols,crn,lv,mc,moran,gossip,spatial,consensus,
// sweep,rng,exploit,plurality,bd,coupling,approx,faultpoint,ioretry}
// subtrees — the code that runs inside replicated trials (including the
// fault-injection sites and retry backoffs), where any stray entropy or
// clock read breaks byte-identity across worker and lane counts.
var DetRand = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid math/rand and wall-clock reads in engine packages\n\n" +
		"Engine code must draw randomness only from the replicate-keyed\n" +
		"streams of internal/rng (rng.NewStream), so Monte-Carlo results\n" +
		"are byte-identical for every worker and lane count.",
	Run: runDetRand,
}

// mathRandPkgs are the import paths banned outright in engine scope.
var mathRandPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// wallClockFuncs are the time package functions that read the wall clock.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runDetRand(pass *analysis.Pass) (any, error) {
	if !inEngineScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if mathRandPkgs[path] {
				pass.Reportf(imp.Pos(), "engine package imports %s: draw randomness only from replicate-keyed rng.NewStream streams", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch path := pkgPathOf(pass.TypesInfo, sel.X); {
			case mathRandPkgs[path]:
				pass.Reportf(sel.Pos(), "use of %s.%s in an engine package: draw randomness only from replicate-keyed rng.NewStream streams", path, sel.Sel.Name)
			case path == "time" && wallClockFuncs[sel.Sel.Name]:
				pass.Reportf(sel.Pos(), "wall-clock read time.%s in an engine package: results must not depend on real time", sel.Sel.Name)
			}
			return true
		})
	}
	return nil, nil
}
