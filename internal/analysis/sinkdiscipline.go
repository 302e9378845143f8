package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// SinkDiscipline enforces the event-emission contract of the
// observability layer: protocol events are born inside the obs
// collector (Collector.emit stamps the sequence number and timebase and
// fans out to sinks), so code outside internal/obs must not construct
// obs.Event values or invoke sink Event methods directly — with one
// exemption for forwarding sinks, which may chain to another sink from
// inside their own Event method. Additionally, hot-path code
// (//stripe:hotpath, transitively) may emit observability only through
// the nil-safe, sampled *obs.Collector hooks: calling a Tracer,
// Histogram, Checker or Sink method directly from a hot function
// bypasses the sampling and nil-gating that keep instrumentation inside
// its overhead budget.
const sinkDisciplineName = "sinkdiscipline"

var SinkDiscipline = &Pass{
	Name: sinkDisciplineName,
	Doc:  "protocol events are emitted only via the obs sink API; hot paths only via sampled Collector hooks",
	Run:  runSinkDiscipline,
}

const obsPkgSuffix = "/internal/obs"

func runSinkDiscipline(prog *Program, pkgs []*Package) []Diagnostic {
	var ds []Diagnostic
	obsPath := prog.ModPath + obsPkgSuffix

	for _, pkg := range pkgs {
		if pkg.Path == obsPath {
			continue // the collector is where events are made
		}
		info := pkg.Info
		for _, file := range pkg.Files {
			var enclosing []*ast.FuncDecl
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					return true
				}
				if fd, ok := n.(*ast.FuncDecl); ok {
					enclosing = append(enclosing, fd)
					// Popping is unnecessary: FuncDecls don't nest.
				}
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isObsNamed(info.Types[n].Type, obsPath, "Event") {
						ds = append(ds, Diagnostic{
							Pos:  prog.Fset.Position(n.Pos()),
							Pass: sinkDisciplineName,
							Msg:  "obs.Event constructed outside internal/obs; events are born in the collector (use its Emit/Trace* methods)",
						})
					}
				case *ast.CallExpr:
					callee := calleeOf(info, n)
					if !isSinkEventMethod(callee, obsPath) {
						return true
					}
					// A forwarding sink may chain from inside its own
					// Event method.
					if len(enclosing) > 0 {
						if last := enclosing[len(enclosing)-1]; isEventMethodDecl(pkg, last, obsPath) {
							return true
						}
					}
					ds = append(ds, Diagnostic{
						Pos:  prog.Fset.Position(n.Pos()),
						Pass: sinkDisciplineName,
						Msg:  "direct sink Event call outside internal/obs; attach the sink to a Collector and emit through its hooks",
					})
				}
				return true
			})
		}
	}

	// Hot-path emission rule: inside the transitive hot set, obs types
	// other than the Collector are off limits.
	hot, _ := hotSet(prog, pkgs)
	for _, hf := range hot {
		if hf.pkg.Path == obsPath || hf.decl.Body == nil {
			continue
		}
		info := hf.pkg.Info
		ast.Inspect(hf.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(info, call)
			recv := receiverNamed(callee)
			if recv == nil || pkgPathOfObj(recv.Obj()) != obsPath {
				return true
			}
			if recv.Obj().Name() == "Collector" {
				return true // the sanctioned nil-safe, sampled hook surface
			}
			ds = append(ds, Diagnostic{
				Pos:  prog.Fset.Position(call.Pos()),
				Pass: sinkDisciplineName,
				Msg: fmt.Sprintf("%s (hot via %s): calls (%s).%s directly; hot paths emit only through the sampled *obs.Collector hooks",
					funcName(hf.fn), hf.chain, recv.Obj().Name(), callee.Name()),
			})
			return true
		})
	}
	return ds
}

// isObsNamed reports whether t is the named type obsPath.name.
func isObsNamed(t types.Type, obsPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && pkgPathOfObj(obj) == obsPath
}

// isSinkEventMethod reports whether fn is a method named Event taking a
// single obs.Event — the obs.Sink interface method or any concrete
// implementation of it.
func isSinkEventMethod(fn *types.Func, obsPath string) bool {
	if fn == nil || fn.Name() != "Event" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 {
		return false
	}
	return isObsNamed(sig.Params().At(0).Type(), obsPath, "Event")
}

// isEventMethodDecl reports whether the declaration is itself a sink
// Event method (the forwarding exemption).
func isEventMethodDecl(pkg *Package, fd *ast.FuncDecl, obsPath string) bool {
	if fd.Recv == nil {
		return false
	}
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	return ok && isSinkEventMethod(fn, obsPath)
}

// receiverNamed returns the named type of a method's receiver (through
// one pointer), or nil for plain functions.
func receiverNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func pkgPathOfObj(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}
