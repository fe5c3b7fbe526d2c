// Package lockorder derives the module-wide lock-acquisition graph and
// checks it against a declared canonical order.
//
// Mutex fields (and package-level mutex vars) declare their place in
// the canonical order with an annotation on the declaration:
//
//	//kjoinlint:lockorder rank=20
//	mu sync.RWMutex
//
// Lower ranks are acquired first. The analyzer tracks, per function,
// which locks are held at each acquisition site — including locks
// acquired inside callees, propagated as facts along the call graph —
// and reports
//
//   - an acquisition of a lock whose declared rank is not strictly
//     greater than that of a lock already held (an inversion of the
//     canonical order, i.e. a potential deadlock against a thread
//     acquiring in the declared order), and
//   - re-acquisition of a lock already held (self-deadlock for
//     sync.Mutex, writer starvation for RWMutex), and
//   - cycles in the acquisition graph even among unranked locks.
//
// The analysis is a may-hold approximation: branches contribute the
// union of their acquisitions, an Unlock not executed on every path is
// still treated as releasing, and calls through interfaces or func
// values propagate nothing (static call edges only) — except callbacks:
// a function that calls one of its func-typed parameters while holding
// locks exports those locks, and a function literal (or static function
// reference) passed to it is checked as if it ran under them. Those are
// the same trade-offs the dynamic lock-rank checkers in large Go systems
// make; the point is catching structural inversions, not proving their
// absence.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"kjoin/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "detect lock-order inversions and acquisition cycles against the declared canonical order",
	Run:  run,
}

// Acquires is the object fact exported for every function: the set of
// lock keys the function (transitively, along static call edges) may
// acquire, and the locks it may hold when it calls one of its func-typed
// parameters. Callers use it to extend their held-set edges through
// calls into already-analyzed packages, and into the callbacks they
// pass.
type Acquires struct {
	Keys []string
	Held []string
}

func (*Acquires) AFact() {}

// Edge is one observed acquisition ordering: To was acquired while From
// was held. Pos is the "file:line" of the acquisition, kept only for
// cross-package cycle reports.
type Edge struct {
	From, To, Pos string
}

// Order is the package fact carrying everything known at or below this
// package: declared ranks and observed acquisition edges, merged with
// the Order facts of all module-internal imports. The topmost packages
// therefore see the whole module's graph.
type Order struct {
	Ranks map[string]int
	Edges []Edge
}

func (*Order) AFact() {}

var rankRe = regexp.MustCompile(`kjoinlint:lockorder\s+rank=(\d+)`)

func run(pass *analysis.Pass) error {
	ranks := collectRanks(pass)
	merged := &Order{Ranks: make(map[string]int)}
	for k, v := range ranks {
		merged.Ranks[k] = v
	}
	edgeSeen := make(map[string]bool)
	for _, imp := range pass.Pkg.Imports() {
		var of Order
		if !pass.ImportPackageFact(imp, &of) {
			continue
		}
		for k, v := range of.Ranks {
			merged.Ranks[k] = v
		}
		for _, e := range of.Edges {
			if !edgeSeen[e.From+"\x00"+e.To] {
				edgeSeen[e.From+"\x00"+e.To] = true
				merged.Edges = append(merged.Edges, e)
			}
		}
	}

	w := &walker{
		pass:     pass,
		ranks:    merged.Ranks,
		acquires: make(map[*types.Func]map[string]bool),
		cbHeld:   make(map[*types.Func]map[string]bool),
		reported: make(map[string]bool),
	}
	w.computeAcquires()

	var localEdges []localEdge
	w.local = &localEdges
	// The first, dry pass only learns which locks each function holds at
	// its callback calls, so the second can walk every callback passed to
	// it wherever the caller sits in the package.
	for _, dry := range []bool{true, false} {
		w.dry = dry
		for _, body := range w.bodies() {
			w.cur = body.fn
			// A nil held set means "path terminated"; the empty-but-non-nil
			// slice is the live empty set.
			w.walkStmts(body.body.List, []string{})
		}
	}

	for _, e := range localEdges {
		if !edgeSeen[e.from+"\x00"+e.to] {
			edgeSeen[e.from+"\x00"+e.to] = true
			merged.Edges = append(merged.Edges, Edge{From: e.from, To: e.to, Pos: pass.Fset.Position(e.pos).String()})
		}
	}
	reportCycles(pass, merged, localEdges)

	pass.ExportPackageFact(merged)
	for fn, keys := range w.acquires {
		if fn.Pkg() != pass.Pkg || len(keys) == 0 {
			continue
		}
		pass.ExportObjectFact(fn, &Acquires{Keys: sortedKeys(keys), Held: sortedKeys(w.cbHeld[fn])})
	}
	return nil
}

// collectRanks scans struct fields and package-level vars for
// //kjoinlint:lockorder rank=N annotations.
func collectRanks(pass *analysis.Pass) map[string]int {
	ranks := make(map[string]int)
	note := func(doc *ast.CommentGroup, comment *ast.CommentGroup, key string) {
		for _, cg := range []*ast.CommentGroup{doc, comment} {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if m := rankRe.FindStringSubmatch(c.Text); m != nil {
					var n int
					fmt.Sscanf(m[1], "%d", &n)
					ranks[key] = n
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					st, ok := sp.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							key := pass.Pkg.Path() + "." + sp.Name.Name + "." + name.Name
							note(field.Doc, field.Comment, key)
						}
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						key := pass.Pkg.Path() + "." + name.Name
						note(gd.Doc, sp.Comment, key)
						note(sp.Doc, nil, key)
					}
				}
			}
		}
	}
	return ranks
}

type localEdge struct {
	from, to string
	pos      token.Pos
}

type funcBody struct {
	fn   *types.Func // nil for function literals
	body *ast.BlockStmt
}

type walker struct {
	pass     *analysis.Pass
	ranks    map[string]int
	acquires map[*types.Func]map[string]bool // this package's functions, after fixpoint
	cbHeld   map[*types.Func]map[string]bool // this package's functions: locks held at callback calls
	local    *[]localEdge
	cur      *types.Func // function being walked (nil in a literal)
	dry      bool        // learning cbHeld only: record no edges
	reported map[string]bool
}

// bodies returns every function body in the package: declared functions
// first, then function literals (walked with an empty held set — a
// literal runs on its own goroutine or callback stack, not under the
// syntactic locks of its enclosing function; the enclosing frames that
// do call it synchronously lose precision, never soundness of the
// may-hold edges recorded inside it).
func (w *walker) bodies() []funcBody {
	var out []funcBody
	for _, f := range w.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := w.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			out = append(out, funcBody{fn: fn, body: fd.Body})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, funcBody{body: lit.Body})
					return false
				}
				return true
			})
		}
	}
	return out
}

// computeAcquires derives, for every function declared in the package,
// the transitive set of lock keys it may acquire: direct Lock/RLock
// sites plus the acquire sets of static callees (imported as facts for
// other packages, iterated to fixpoint within this one).
func (w *walker) computeAcquires() {
	direct := make(map[*types.Func]map[string]bool)
	callees := make(map[*types.Func][]*types.Func)
	for _, b := range w.bodies() {
		if b.fn == nil {
			continue
		}
		acq := make(map[string]bool)
		ast.Inspect(b.body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, kind := w.lockOp(call); kind == opLock {
				acq[key] = true
			} else if kind == opNone {
				if callee, dyn := analysis.StaticCallee(w.pass.TypesInfo, call); callee != nil && !dyn {
					callees[b.fn] = append(callees[b.fn], callee)
				}
			}
			return true
		})
		direct[b.fn] = acq
	}
	for fn, acq := range direct {
		w.acquires[fn] = acq
	}
	// Seed cross-package callee sets once, then iterate the in-package
	// closure to fixpoint.
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			for _, callee := range cs {
				for _, k := range w.calleeKeys(callee) {
					if !w.acquires[fn][k] {
						w.acquires[fn][k] = true
						changed = true
					}
				}
			}
		}
	}
}

// calleeKeys returns the may-acquire set of a callee: the in-package
// fixpoint state for local functions, the exported Acquires fact for
// functions of already-analyzed packages.
func (w *walker) calleeKeys(callee *types.Func) []string {
	if callee.Pkg() == w.pass.Pkg {
		return sortedKeys(w.acquires[callee])
	}
	var f Acquires
	if w.pass.ImportObjectFact(callee, &f) {
		return f.Keys
	}
	return nil
}

// calleeHeld returns the locks a callee may hold when it calls one of
// its func-typed parameters.
func (w *walker) calleeHeld(callee *types.Func) []string {
	if callee.Pkg() == w.pass.Pkg {
		return sortedKeys(w.cbHeld[callee])
	}
	var f Acquires
	if w.pass.ImportObjectFact(callee, &f) {
		return f.Held
	}
	return nil
}

// isParam reports whether fun names a parameter of the declared function
// being walked — a call through it is a callback call.
func (w *walker) isParam(fun ast.Expr) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || w.cur == nil {
		return false
	}
	params := w.cur.Type().(*types.Signature).Params()
	for i := range params.Len() {
		if params.At(i) == w.pass.TypesInfo.Uses[id] {
			return true
		}
	}
	return false
}

// walkCallbacks checks the function arguments of a call whose callee
// invokes its func-typed parameters under held: literal bodies are
// walked with those locks held, static function references contribute
// their acquire sets.
func (w *walker) walkCallbacks(call *ast.CallExpr, held []string) {
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, cloneHeld(held))
		} else if fn, dyn := analysis.StaticCallee(w.pass.TypesInfo, &ast.CallExpr{Fun: arg}); fn != nil && !dyn {
			for _, k := range w.calleeKeys(fn) {
				w.recordEdge(held, k, arg.Pos(), fn.Name())
			}
		}
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as a mutex acquisition or release and
// returns the lock's canonical key. Locks that cannot be named
// module-wide (locals, embedded mutexes reached by promotion) yield
// opNone — they cannot participate in a cross-function order.
func (w *walker) lockOp(call *ast.CallExpr) (string, lockOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", opNone
	}
	if !isMutex(w.pass.TypeOf(sel.X)) {
		return "", opNone
	}
	key, ok := w.lockKey(sel.X)
	if !ok {
		return "", opNone
	}
	return key, kind
}

// lockKey names a mutex module-wide: "pkg.Type.field" for struct
// fields, "pkg.var" for package-level vars.
func (w *walker) lockKey(expr ast.Expr) (string, bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if s, ok := w.pass.TypesInfo.Selections[x]; ok && s.Kind() == types.FieldVal {
			if named, ok := deref(s.Recv()).(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name, true
			}
			return "", false
		}
		if v, ok := w.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && isPkgLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	case *ast.Ident:
		if v, ok := w.pass.TypesInfo.Uses[x].(*types.Var); ok && isPkgLevel(v) {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	}
	return "", false
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isMutex(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// walkStmts tracks the may-held set through a statement list in source
// order. It returns the held set at fall-through, or nil if every path
// through the list terminates (return/panic). held is an ordered list:
// edge sources report in acquisition order.
func (w *walker) walkStmts(list []ast.Stmt, held []string) []string {
	for _, stmt := range list {
		held = w.walkStmt(stmt, held)
		if held == nil {
			return nil
		}
	}
	if held == nil {
		held = []string{}
	}
	return held
}

func (w *walker) walkStmt(stmt ast.Stmt, held []string) []string {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return w.walkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			held = w.walkExpr(rhs, held)
		}
		return held
	case *ast.DeferStmt:
		// defer mu.Unlock() pins the lock to function exit: keep it
		// held. Other deferred effects are applied immediately — an
		// over-approximation consistent with may-hold.
		if key, kind := w.lockOp(s.Call); kind == opUnlock && key != "" {
			return held
		}
		return w.walkExpr(s.Call, held)
	case *ast.GoStmt:
		// The goroutine body runs concurrently, not under our locks;
		// its own edges are recorded by the FuncLit walk.
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = w.walkExpr(r, held)
		}
		return nil
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		held = w.walkExpr(s.Cond, held)
		thenOut := w.walkStmts(s.Body.List, cloneHeld(held))
		var elseOut []string
		if s.Else != nil {
			elseOut = w.walkStmt(s.Else, cloneHeld(held))
		} else {
			elseOut = held
		}
		return mergeHeld(thenOut, elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.walkExpr(s.Cond, held)
		}
		out := w.walkStmts(s.Body.List, cloneHeld(held))
		return mergeHeld(out, held)
	case *ast.RangeStmt:
		held = w.walkExpr(s.X, held)
		out := w.walkStmts(s.Body.List, cloneHeld(held))
		return mergeHeld(out, held)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkBranches(s, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = w.walkExpr(v, held)
					}
				}
			}
		}
		return held
	default:
		return held
	}
}

func (w *walker) walkBranches(stmt ast.Stmt, held []string) []string {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.walkExpr(s.Tag, held)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	out := []string(nil)
	terminated := true
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			stmts = cc.Body
		}
		branch := w.walkStmts(stmts, cloneHeld(held))
		if branch != nil {
			out = mergeHeld(out, branch)
			terminated = false
		}
	}
	if !hasDefault {
		out = mergeHeld(out, held)
		terminated = false
	}
	if terminated {
		return nil
	}
	return out
}

// walkExpr records lock operations and call effects inside an
// expression, in evaluation order, and returns the updated held set.
func (w *walker) walkExpr(expr ast.Expr, held []string) []string {
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, kind := w.lockOp(call)
		switch kind {
		case opLock:
			held = w.acquire(held, key, call.Pos())
		case opUnlock:
			held = removeHeld(held, key)
		case opNone:
			if callee, dyn := analysis.StaticCallee(w.pass.TypesInfo, call); callee != nil && !dyn {
				for _, k := range w.calleeKeys(callee) {
					w.recordEdge(held, k, call.Pos(), callee.Name())
				}
				if cb := w.calleeHeld(callee); len(cb) > 0 {
					w.walkCallbacks(call, mergeHeld(cloneHeld(held), cb))
				}
			} else if w.isParam(call.Fun) && len(held) > 0 {
				if w.cbHeld[w.cur] == nil {
					w.cbHeld[w.cur] = make(map[string]bool)
				}
				for _, k := range held {
					w.cbHeld[w.cur][k] = true
				}
			}
		}
		return true
	})
	return held
}

// acquire records edges from every held lock to the newly acquired one
// and checks the declared order.
func (w *walker) acquire(held []string, key string, pos token.Pos) []string {
	w.recordEdge(held, key, pos, "")
	return append(held, key)
}

// recordEdge adds held→key edges and reports inversions. via names the
// callee when the acquisition happens inside a call rather than at a
// literal Lock().
func (w *walker) recordEdge(held []string, key string, pos token.Pos, via string) {
	if w.dry {
		return
	}
	suffix := ""
	if via != "" {
		suffix = fmt.Sprintf(" (via call to %s)", via)
	}
	for _, h := range held {
		if h == key {
			w.reportf(pos, "acquires %s while already holding it%s", key, suffix)
			continue
		}
		if rh, okh := w.ranks[h]; okh {
			if rk, okk := w.ranks[key]; okk && rh >= rk {
				w.reportf(pos, "acquires %s (rank %d) while holding %s (rank %d): violates declared lock order%s",
					key, rk, h, rh, suffix)
			}
		}
		*w.local = append(*w.local, localEdge{from: h, to: key, pos: pos})
	}
}

// reportf reports a finding once: a function literal passed as a
// callback is walked both on its own and under its callee's locks.
func (w *walker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if k := fmt.Sprint(pos, msg); !w.reported[k] {
		w.reported[k] = true
		w.pass.Reportf(pos, "%s", msg)
	}
}

func cloneHeld(held []string) []string {
	if held == nil {
		return nil
	}
	out := make([]string, len(held))
	copy(out, held)
	return out
}

// mergeHeld unions two may-held sets, preserving a's order.
func mergeHeld(a, b []string) []string {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	seen := make(map[string]bool, len(a))
	out := cloneHeld(a)
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func removeHeld(held []string, key string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == key {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// reportCycles finds strongly connected components in the merged edge
// set and reports each cycle that involves an edge recorded in this
// package (so a module-wide cycle is reported exactly once, where its
// last edge appears). Self-edges are excluded: re-acquisition is
// already reported at the acquisition site. Cycles whose every lock
// carries a declared rank are skipped too — such a cycle necessarily
// contains a rank inversion, already reported at its acquisition site.
func reportCycles(pass *analysis.Pass, merged *Order, local []localEdge) {
	adj := make(map[string][]string)
	for _, e := range merged.Edges {
		if e.From != e.To {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	sccs := tarjan(adj)
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		allRanked := true
		for _, k := range scc {
			if _, ok := merged.Ranks[k]; !ok {
				allRanked = false
				break
			}
		}
		if allRanked {
			continue
		}
		inSCC := make(map[string]bool, len(scc))
		for _, k := range scc {
			inSCC[k] = true
		}
		// Report at the last local edge — the acquisition that closed
		// the cycle in source order.
		for i := len(local) - 1; i >= 0; i-- {
			le := local[i]
			if le.from != le.to && inSCC[le.from] && inSCC[le.to] {
				sort.Strings(scc)
				pass.Reportf(le.pos, "lock-order cycle among %s (potential deadlock)", strings.Join(scc, " ↔ "))
				break
			}
		}
	}
}

// tarjan computes strongly connected components of the key graph.
func tarjan(adj map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var nodes []string
	seen := make(map[string]bool)
	for from, tos := range adj {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for _, to := range tos {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wd := range adj[v] {
			if _, ok := index[wd]; !ok {
				strongconnect(wd)
				if low[wd] < low[v] {
					low[v] = low[wd]
				}
			} else if onStack[wd] && index[wd] < low[v] {
				low[v] = index[wd]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[n] = false
				scc = append(scc, n)
				if n == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return sccs
}
