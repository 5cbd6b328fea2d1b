// Package lint is the repository's determinism lint suite: five custom
// static analyzers that mechanically enforce the invariants every result in
// this reproduction rests on but no compiler checks.
//
// The invariants, and the analyzer guarding each:
//
//   - detrand: engine packages draw randomness only from replicate-keyed
//     rng.NewStream streams and never read the wall clock, so estimates are
//     byte-identical for any worker or lane count.
//   - maporder: no Go map iteration feeds an order-sensitive sink (slice
//     append, writer, table, hash) — the classic silent determinism killer.
//   - interrupt: option literals (mc.Options, sweep.Options, the estimate
//     and experiment configs) never drop an available Interrupt on the
//     floor, so long runs stay cancellable end to end (the bug class PR 5
//     fixed by hand-audit).
//   - hotpath: regions marked //lint:hotpath — the compiled kernels'
//     inner loops — contain no allocation-prone constructs (append growth,
//     closures, interface conversions, fmt, string concatenation, defer),
//     keeping the 0 allocs/event benchmarks structural rather than lucky.
//   - speclock: every exported field reachable from scenario.Spec carries a
//     json tag and is exercised by the committed golden spec, so schema v1
//     cannot drift silently.
//
// False positives are suppressed in place with a justified directive:
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above. A bare //lint:ignore without an
// analyzer name and a reason is itself a diagnostic — unexplained
// suppressions are how invariants rot.
//
// The suite runs through cmd/lint, standalone (`lint ./...`) or as a
// `go vet -vettool` unit checker; CI runs it on every push.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"lvmajority/internal/lint/analysis"
)

// Suite returns the determinism analyzers in their canonical order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetRand,
		MapOrder,
		Interrupt,
		HotPath,
		SpecLock,
	}
}

// DirectiveAnalyzer is the name diagnostics about malformed //lint:
// directives are reported under. It is always active and cannot be
// suppressed.
const DirectiveAnalyzer = "lintdirective"

// A Diag is one rendered finding: a position, the analyzer that produced
// it, and the message.
type Diag struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// RunPackage applies every analyzer in suite to one type-checked package
// and returns the surviving diagnostics sorted by position. The
// //lint:ignore suppression filter is applied here — analyzers report
// unconditionally — and malformed directives are reported under
// DirectiveAnalyzer.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, suite []*analysis.Analyzer) ([]Diag, error) {
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	ignores, hygiene := parseDirectives(fset, files, known)

	var out []Diag
	out = append(out, hygiene...)
	for _, a := range suite {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			if ignores.suppressed(name, pos) {
				return
			}
			out = append(out, Diag{Position: pos, Analyzer: name, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path(), a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// enginePackages are the import-path segments (under internal/) whose code
// runs inside replicated trials: randomness and wall-clock discipline is
// enforced there by detrand.
var enginePackages = []string{
	"protocols", "crn", "lv", "mc", "moran", "gossip", "spatial",
	"consensus", "sweep", "rng", "exploit", "plurality", "bd",
	"coupling", "approx",
	// The fault-tolerance layers execute inside trial and flush loops:
	// injected faults and retry backoffs must be as reproducible as the
	// trials they perturb, so they obey the same discipline.
	"faultpoint", "ioretry",
}

// inEngineScope reports whether pkgPath contains an internal/<engine>
// segment pair, e.g. lvmajority/internal/mc or lvmajority/internal/mc/sub.
func inEngineScope(pkgPath string) bool {
	segs := strings.Split(pkgPath, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] != "internal" {
			continue
		}
		for _, name := range enginePackages {
			if segs[i+1] == name {
				return true
			}
		}
	}
	return false
}

// pkgPathOf resolves a selector qualifier to the imported package path, or
// "" when expr is not a package qualifier.
func pkgPathOf(info *types.Info, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
