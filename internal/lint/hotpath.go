package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"lvmajority/internal/lint/analysis"
)

// HotPath enforces the 0 allocs/event contract on regions annotated with a
// `//lint:hotpath` directive — the compiled kernels' inner loops (the
// population protocols' batch loop and lockstep rounds, the fused LV
// consensus loop, the incremental-propensity SSA step). The directive goes on a function's doc
// comment or on its own line directly above a for/range statement; inside
// the marked region the analyzer flags allocation-prone constructs:
//
//   - append (backing-array growth), make, new
//   - closure literals (captured variables escape)
//   - defer and go statements
//   - calls into fmt and reflect
//   - string concatenation (+ / += on strings)
//   - slice and map composite literals
//   - implicit or explicit conversion of a concrete value to an interface
//
// The committed benchmarks prove the kernels allocation-free today; this
// analyzer keeps that structural, so a regression fails vet before it
// fails the benchmark gate.
var HotPath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "forbid allocation-prone constructs in //lint:hotpath regions\n\n" +
		"Mark a kernel function (doc comment) or inner loop (preceding\n" +
		"line) with //lint:hotpath; appends, closures, interface\n" +
		"conversions, fmt calls, string concatenation, defer, and other\n" +
		"allocation sources inside are diagnostics.",
	Run: runHotPath,
}

func runHotPath(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		// Hot loops: directives on the line directly above a statement.
		hotLines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == hotpathDirective || (len(c.Text) > len(hotpathDirective) && c.Text[:len(hotpathDirective)+1] == hotpathDirective+" ") {
					hotLines[pass.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if directiveOn(n.Doc, hotpathDirective) {
					checkHotRegion(pass, n.Body)
					return false
				}
			case *ast.ForStmt, *ast.RangeStmt:
				if hotLines[pass.Fset.Position(n.Pos()).Line-1] {
					checkHotRegion(pass, n)
					return false
				}
			}
			return true
		})
	}
	return nil, nil
}

func checkHotRegion(pass *analysis.Pass, region ast.Node) {
	if region == nil {
		return
	}
	info := pass.TypesInfo
	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hot path: captured variables escape to the heap")
			return false
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot path: allocates and delays work to function exit")
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch in hot path")
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "slice or map literal in hot path allocates per event; hoist it out of the loop")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil && isString(t) {
					pass.Reportf(n.Pos(), "string concatenation in hot path allocates")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN {
				if t := info.TypeOf(n.Lhs[0]); t != nil && isString(t) {
					pass.Reportf(n.Pos(), "string concatenation in hot path allocates")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, n)
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	// Builtins and conversions.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.Builtin); ok {
			switch fun.Name {
			case "append":
				pass.Reportf(call.Pos(), "append in hot path: backing-array growth allocates; preallocate outside the loop")
				return
			case "make", "new":
				pass.Reportf(call.Pos(), "%s in hot path allocates; hoist it out of the loop", fun.Name)
				return
			}
		}
	case *ast.SelectorExpr:
		switch pkgPathOf(info, fun.X) {
		case "fmt", "reflect":
			pass.Reportf(call.Pos(), "call into %s in hot path allocates; move formatting out of the kernel", pkgPathOf(info, fun.X))
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) {
			pass.Reportf(call.Pos(), "conversion to interface in hot path allocates")
		}
		return
	}
	// Implicit interface conversions at call arguments.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "argument converts %s to interface %s in hot path: the value escapes to the heap",
			types.TypeString(at, types.RelativeTo(pass.Pkg)), types.TypeString(pt, types.RelativeTo(pass.Pkg)))
	}
}
