// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis API surface the repository's determinism
// lint suite needs.
//
// The build environment for this repository is hermetic: the module has no
// external dependencies and the toolchain image carries no module cache, so
// golang.org/x/tools cannot be required from go.mod. Rather than give up
// mechanical enforcement of the determinism invariants, this package mirrors
// the x/tools types field-for-field (Analyzer, Pass, Diagnostic) so each
// analyzer in internal/lint is written exactly as it would be against the
// real API. If the dependency ever becomes available, the analyzers port by
// switching one import path; until then cmd/lint ships its own driver that
// speaks the `go vet -vettool` unit-checker protocol.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis function and its metadata.
// The fields mirror golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:ignore <name> <reason>` suppression directives. It must be a
	// valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: one summary line, a blank line,
	// then detail. cmd/lint prints it from `lint help <name>`.
	Doc string

	// Run applies the analyzer to a single package and reports diagnostics
	// via pass.Report. The returned value is ignored by this driver (the
	// x/tools API uses it for inter-analyzer facts, which the determinism
	// suite does not need).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer run with the parsed, type-checked view of a
// single package, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer

	// Fset maps token positions to file locations for Files.
	Fset *token.FileSet

	// Files is the package's syntax: every parsed source file, in the
	// deterministic order the driver loaded them (sorted by file name).
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo carries the type-checker's results for Files: Types, Defs,
	// Uses, Selections, Implicits and Scopes are all populated.
	TypesInfo *types.Info

	// Report emits one diagnostic. The driver wraps it with the
	// `//lint:ignore` suppression filter, so analyzers call it
	// unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, tied to a source position.
type Diagnostic struct {
	// Pos is the primary position of the finding.
	Pos token.Pos
	// End, when valid, is the end of the offending source range.
	End token.Pos
	// Message is the human-readable finding, ideally one line stating the
	// broken invariant and the fix.
	Message string
}
