package lint

// The module-local call graph: every function and method declared in
// the module, with edges for direct calls, method calls on concrete
// module types, and interface dispatch resolved to every module-local
// concrete method implementing the interface (the sound
// over-approximation — internal/sim hands itself to internal/mem as a
// mem.L1Directory, and hotalloc must follow that edge back into
// (*Chip).InvalidateL1).  Calls through plain function values (fields,
// parameters, locals) get no edges: the module's hook points
// (Chip.onHalt, telemetry samplers) are registration-time seams, and
// treating them as reachable from the cycle loop would drown the
// analyzer in boundary code.  Function literals are attributed to
// their enclosing declaration.
//
// The graph is built once per Module and shared by every analyzer
// (see Module.Fact / Module.CallGraph).

import (
	"go/ast"
	"go/types"
)

// FuncNode is one declared function or method.
type FuncNode struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []CallSite
}

// Name renders the node as pkg.Func or pkg.(*T).Method for messages.
func (n *FuncNode) Name() string {
	recv := n.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return n.Pkg.Types.Name() + "." + n.Obj.Name()
	}
	t := recv.Type()
	star := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		star = "*"
	}
	name := "?"
	if named, ok := t.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return n.Pkg.Types.Name() + ".(" + star + name + ")." + n.Obj.Name()
}

// CallSite is one call expression inside a FuncNode's body (or a
// nested function literal) with its resolved module-local targets.
type CallSite struct {
	Call    *ast.CallExpr
	Callees []*FuncNode
}

// CallGraph indexes the module's functions and call edges.
type CallGraph struct {
	byObj  map[*types.Func]*FuncNode
	byDecl map[*ast.FuncDecl]*FuncNode
	nodes  []*FuncNode // declaration order, stable
}

// NodeOf looks a function object up in the graph.
func (g *CallGraph) NodeOf(obj *types.Func) *FuncNode { return g.byObj[obj] }

// Nodes returns every function in stable (package topo, file, decl)
// order.
func (g *CallGraph) Nodes() []*FuncNode { return g.nodes }

// CallGraph returns the module's call graph, building it on first use.
func (m *Module) CallGraph() *CallGraph {
	if m.graph == nil {
		m.graph = buildCallGraph(m)
	}
	return m.graph
}

func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{byObj: map[*types.Func]*FuncNode{}, byDecl: map[*ast.FuncDecl]*FuncNode{}}

	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				g.byObj[obj] = node
				g.byDecl[fd] = node
				g.nodes = append(g.nodes, node)
			}
		}
	}

	// Methods indexed by name for interface-dispatch resolution.
	methodsByName := map[string][]*FuncNode{}
	for _, n := range g.nodes {
		if n.Obj.Type().(*types.Signature).Recv() != nil {
			methodsByName[n.Obj.Name()] = append(methodsByName[n.Obj.Name()], n)
		}
	}

	for _, n := range g.nodes {
		n.Calls = resolveCalls(n, methodsByName, g)
	}
	return g
}

// resolveCalls walks n's body — including nested function literals —
// and resolves every call expression to its module-local targets.
func resolveCalls(n *FuncNode, methodsByName map[string][]*FuncNode, g *CallGraph) []CallSite {
	info := n.Pkg.Info
	var sites []CallSite
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callees []*FuncNode
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if obj, ok := info.Uses[fun].(*types.Func); ok {
				if target := g.byObj[obj]; target != nil {
					callees = append(callees, target)
				}
			}
		case *ast.SelectorExpr:
			obj, ok := info.Uses[fun.Sel].(*types.Func)
			if !ok {
				break
			}
			if sel, selOk := info.Selections[fun]; selOk && sel.Kind() == types.MethodVal {
				if iface, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					// Interface dispatch: every module-local concrete
					// method implementing the interface is a target.
					for _, impl := range methodsByName[fun.Sel.Name] {
						recv := impl.Obj.Type().(*types.Signature).Recv().Type()
						if types.Implements(recv, iface) || types.Implements(types.NewPointer(deref(recv)), iface) {
							callees = append(callees, impl)
						}
					}
					break
				}
			}
			if target := g.byObj[obj]; target != nil {
				callees = append(callees, target)
			}
		}
		if len(callees) > 0 {
			sites = append(sites, CallSite{Call: call, Callees: callees})
		}
		return true
	})
	return sites
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// Reachable walks the graph from roots, returning every node reached.
// A node for which stop returns true is recorded as visited but not
// traversed into, and is excluded from the result — the hook for
// annotations that declare a subtree out of scope (cold fault paths).
func (g *CallGraph) Reachable(roots []*FuncNode, stop func(*FuncNode) bool) map[*FuncNode]bool {
	reach := map[*FuncNode]bool{}
	seen := map[*FuncNode]bool{}
	var queue []*FuncNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if stop != nil && stop(n) {
			continue
		}
		reach[n] = true
		for _, site := range n.Calls {
			for _, c := range site.Callees {
				if !seen[c] {
					seen[c] = true
					queue = append(queue, c)
				}
			}
		}
	}
	return reach
}
