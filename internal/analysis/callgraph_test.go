package analysis

import (
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// lookupFunc finds a function or method in a loaded package by
// "Name" or "Recv.Name" (pointer receivers included).
func lookupFunc(t *testing.T, pkgs []*Package, pkgSuffix, name string) *types.Func {
	t.Helper()
	recv, method, isMethod := strings.Cut(name, ".")
	for _, pkg := range pkgs {
		if !strings.HasSuffix(pkg.Types.Path(), pkgSuffix) {
			continue
		}
		scope := pkg.Types.Scope()
		if !isMethod {
			if fn, ok := scope.Lookup(name).(*types.Func); ok {
				return fn
			}
			continue
		}
		tn, ok := scope.Lookup(recv).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				return m
			}
		}
	}
	t.Fatalf("function %s not found in package *%s", name, pkgSuffix)
	return nil
}

// lookupField finds a struct field by "Type.field" in a package.
func lookupField(t *testing.T, pkgs []*Package, pkgSuffix, name string) *types.Var {
	t.Helper()
	typeName, field, _ := strings.Cut(name, ".")
	for _, pkg := range pkgs {
		if !strings.HasSuffix(pkg.Types.Path(), pkgSuffix) {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == field {
				return f
			}
		}
	}
	t.Fatalf("field %s not found in package *%s", name, pkgSuffix)
	return nil
}

// TestGraphCycles pins the digraph cycle detector: canonical rotation,
// deduplication (the same cycle entered from every node reports once),
// self-loops, and determinism.
func TestGraphCycles(t *testing.T) {
	g := NewGraph()
	edge := func(from, to string) {
		g.AddEdge(GraphEdge{From: from, To: to, Pos: token.NoPos})
	}
	// One 2-cycle (reachable from both ends), one self-loop, and an
	// acyclic tail hanging off it.
	edge("B.mu", "A.mu")
	edge("A.mu", "B.mu")
	edge("C.mu", "C.mu")
	edge("A.mu", "D.mu")
	edge("D.mu", "E.mu")

	cycles := g.Cycles()
	if len(cycles) != 2 {
		t.Fatalf("Cycles() = %v, want exactly the A<->B cycle and the C self-loop", cycles)
	}
	if got := CycleString(cycles[0]); got != "A.mu -> B.mu -> A.mu" {
		t.Errorf("cycle 0 = %q, want canonical rotation starting at A.mu", got)
	}
	if got := CycleString(cycles[1]); got != "C.mu -> C.mu" {
		t.Errorf("cycle 1 = %q, want the self-loop", got)
	}

	// A DAG has no cycles.
	dag := NewGraph()
	dag.AddEdge(GraphEdge{From: "X", To: "Y"})
	dag.AddEdge(GraphEdge{From: "Y", To: "Z"})
	dag.AddEdge(GraphEdge{From: "X", To: "Z"})
	if got := dag.Cycles(); len(got) != 0 {
		t.Errorf("DAG Cycles() = %v, want none", got)
	}
}

// TestCallGraphReachable pins the cross-package closure of the call
// graph on the real tree: Session.Snapshot's synchronous reach crosses
// root -> internal/core -> internal/obs.
func TestCallGraphReachable(t *testing.T) {
	prog, mod := sharedProgram(t)
	g := NewCallGraph(prog, mod)

	snapshot := lookupFunc(t, mod, "stripe", "Session.Snapshot")
	syncObs := lookupFunc(t, mod, "/internal/core", "Striper.SyncObs")
	runChecks := lookupFunc(t, mod, "/internal/obs", "Collector.RunChecks")

	reach := g.Reachable(snapshot)
	if !reach[syncObs] {
		t.Errorf("(*Session).Snapshot does not reach (*Striper).SyncObs; the root->core edge is missing")
	}
	if !reach[runChecks] {
		t.Errorf("(*Session).Snapshot does not reach (*Collector).RunChecks; the core->obs edge is missing")
	}
}

// TestLockSummaryCrossPackage pins the fixed-point summary merge:
// Snapshot locks the session lock (declared by the embedded receive
// half, so named recvHalf.mu) directly and reaches Checker.mu only
// through the SyncObs -> RunChecks -> (*Checker).run chain, two
// packages away. Both must appear in its transitive summary.
func TestLockSummaryCrossPackage(t *testing.T) {
	prog, mod := sharedProgram(t)
	g := NewCallGraph(prog, mod)
	li := ComputeLockInfo(prog, g)

	snapshot := lookupFunc(t, mod, "stripe", "Session.Snapshot")
	sum := li.Summary(snapshot)
	if sum == nil {
		t.Fatal("no lock summary for (*Session).Snapshot")
	}
	byName := make(map[string]LockAcq, len(sum.Acquires))
	for v, acq := range sum.Acquires {
		byName[li.LockName(v)] = acq
	}
	if _, ok := byName["recvHalf.mu"]; !ok {
		t.Errorf("summary of Snapshot misses recvHalf.mu (direct acquisition); acquires: %v", names(byName))
	}
	acq, ok := byName["Checker.mu"]
	if !ok {
		t.Fatalf("summary of Snapshot misses Checker.mu (cross-package, via SyncObs -> RunChecks); acquires: %v", names(byName))
	}
	if acq.Via == "" {
		t.Error("Checker.mu should be an indirect acquisition with a via chain, got a direct one")
	}
}

func names(m map[string]LockAcq) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCondOwner pins the sync.NewCond(&x) association the wait-holding
// rule depends on, and the fact the session's design rests on: the
// receive half's rxCond and the session's txCond guard one lock, the
// half's mu.
func TestCondOwner(t *testing.T) {
	prog, mod := sharedProgram(t)
	li := ComputeLockInfo(prog, NewCallGraph(prog, mod))

	mu := lookupField(t, mod, "stripe", "recvHalf.mu")
	for _, name := range []string{"Session.txCond", "recvHalf.rxCond"} {
		if got := li.CondLock[lookupField(t, mod, "stripe", name)]; got != mu {
			t.Errorf("CondLock[%s] = %v, want recvHalf.mu", name, got)
		}
	}
	if name := li.LockName(mu); name != "recvHalf.mu" {
		t.Errorf("LockName(recvHalf.mu) = %q", name)
	}
}
