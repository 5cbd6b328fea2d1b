// Package loader holds the type-checking plumbing that the lint suite's
// drivers share without depending on golang.org/x/tools: the types.Info
// the analyzers read, and an importer over gc export data. cmd/lint's
// go vet unit checker type-checks each package against the export files
// that go vet names in its config; analysistest does the same for its
// fixtures with export data from `go list -deps -export`.
package loader

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
)

// NewInfo returns a types.Info with every map the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// ExportImporter returns a types.Importer resolving imports through
// importMap (source path -> canonical path, identity when absent) to gc
// export-data files. It is built on the standard library's gc importer, so
// it reads exactly what the toolchain in use wrote.
func ExportImporter(fset *token.FileSet, importMap, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
