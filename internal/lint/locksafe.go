package lint

import (
	"go/ast"
	"go/types"

	"ocb/internal/lint/analysis"
)

// lockScopedPackages are the storage and network layers where holding a
// store or buffer-pool lock across real I/O turns the measurement
// harness into the bottleneck it is supposed to measure.
var lockScopedPackages = map[string]bool{
	"paged":   true,
	"btree":   true,
	"waldisk": true,
	"buffer":  true,
	"wire":    true,
	"remote":  true,
	"store":   true,
	"disk":    true,
}

// LockSafe forbids blocking calls — fsync, preads, file appends, network
// operations — while a mutex is held, walking the package call graph so
// indirect I/O (a helper that eventually syncs) is caught at the call
// site under the lock. Locks that exist to serialize I/O (waldisk's
// logMu) are declared with //ocblint:iolock and exempt. It also rejects
// locks copied by value (receivers, parameters, results, range copies).
var LockSafe = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "no fsync/pread/file-append/network call while a store or buffer-pool lock is " +
		"held (declare deliberate I/O-serialization locks with //ocblint:iolock), and no " +
		"mutex copied by value",
	Run: runLockSafe,
}

// blockingCalls is the denylist of standard-library operations that
// perform real I/O or block: package path → names (functions or methods).
// A nil set means every exported function and method of the package.
var blockingCalls = map[string]map[string]bool{
	"os": {
		"Sync": true, "Write": true, "WriteAt": true, "WriteString": true,
		"Read": true, "ReadAt": true, "Seek": true, "Truncate": true, "Close": true,
		"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
		"Rename": true, "Remove": true, "RemoveAll": true,
		"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
		"ReadFile": true, "WriteFile": true, "ReadDir": true, "Stat": true,
	},
	"net": nil, // every net operation blocks
	"syscall": {
		"Fsync": true, "Fdatasync": true, "Pread": true, "Pwrite": true,
		"Read": true, "Write": true, "Open": true, "Close": true,
	},
	"bufio": {
		"Read": true, "ReadByte": true, "ReadBytes": true, "ReadString": true,
		"ReadRune": true, "ReadSlice": true, "ReadLine": true, "Peek": true,
		"Write": true, "WriteByte": true, "WriteString": true, "WriteRune": true,
		"Flush": true,
	},
	"io": {
		"Read": true, "Write": true, "Close": true, "Seek": true,
		"ReadAt": true, "WriteAt": true, "ReadFrom": true, "WriteTo": true,
		"ReadFull": true, "ReadAll": true, "Copy": true, "CopyN": true,
		"CopyBuffer": true, "WriteString": true,
	},
	"time": {"Sleep": true},
}

func runLockSafe(pass *analysis.Pass) error {
	ls := &lockSafe{
		pass:     pass,
		iolocks:  collectIOLocks(pass),
		blocking: make(map[*types.Func]string),
		decls:    make(map[*types.Func]*ast.FuncDecl),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				ls.decls[obj] = fn
			}
			checkLockCopies(pass, fn)
		}
	}
	if scopedTo(pass.Pkg.Path(), pass.Pkg.Name(), lockScopedPackages) {
		ls.propagateBlocking()
		for _, fn := range ls.decls {
			ls.walkStmts(fn.Body.List, nil)
		}
	}
	return nil
}

type lockSafe struct {
	pass     *analysis.Pass
	iolocks  map[types.Object]bool
	blocking map[*types.Func]string // reason chain, e.g. "append → (*os.File).WriteAt"
	decls    map[*types.Func]*ast.FuncDecl
}

// collectIOLocks finds mutex declarations annotated //ocblint:iolock:
// struct fields and package-level vars whose holders may perform I/O.
func collectIOLocks(pass *analysis.Pass) map[types.Object]bool {
	marked := make(map[types.Object]bool)
	mark := func(names []*ast.Ident) {
		for _, name := range names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				marked[obj] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if groupHasDirective(field.Doc, "iolock") || groupHasDirective(field.Comment, "iolock") {
						mark(field.Names)
					}
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if groupHasDirective(n.Doc, "iolock") || groupHasDirective(vs.Doc, "iolock") || groupHasDirective(vs.Comment, "iolock") {
						mark(vs.Names)
					}
				}
			}
			return true
		})
	}
	return marked
}

// isBlockingExternal classifies a resolved callee from another package
// against the denylist.
func isBlockingExternal(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	names, ok := blockingCalls[fn.Pkg().Path()]
	if !ok {
		return false
	}
	return names == nil || names[fn.Name()]
}

// callee resolves a call expression to its static *types.Func, or nil for
// indirect calls, builtins and conversions.
func (ls *lockSafe) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := ls.pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := ls.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// propagateBlocking computes the package-local blocking set to a
// fixpoint: a function is blocking if any call in its body is a denylist
// operation or an already-blocking package function.
func (ls *lockSafe) propagateBlocking() {
	for changed := true; changed; {
		changed = false
		for obj, fn := range ls.decls {
			if _, done := ls.blocking[obj]; done {
				continue
			}
			if reason := ls.blockingReason(fn); reason != "" {
				ls.blocking[obj] = reason
				changed = true
			}
		}
	}
}

// blockingReason scans one function body for the first blocking call.
func (ls *lockSafe) blockingReason(fn *ast.FuncDecl) string {
	reason := ""
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := ls.callee(call)
		if callee == nil {
			return true
		}
		if isBlockingExternal(callee) {
			reason = callName(callee)
			return false
		}
		if chain, ok := ls.blocking[callee]; ok {
			reason = callee.Name() + " → " + chain
			return false
		}
		return true
	})
	return reason
}

// callName renders an external callee for diagnostics.
func callName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), types.RelativeTo(nil)) + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// heldLock is one lock the walked path currently holds.
type heldLock struct {
	name   string // rendered receiver expression, e.g. "s.mu"
	iolock bool
}

// lockOp classifies a call as a mutex acquire or release on a rendered
// receiver; ok is false for everything else.
func (ls *lockSafe) lockOp(call *ast.CallExpr) (name string, iolock, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false, false
	}
	fn, isFn := ls.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false, false
	}
	return types.ExprString(sel.X), ls.exprIsIOLock(sel.X), acquire, true
}

// exprIsIOLock reports whether the lock expression resolves to a
// declaration marked //ocblint:iolock.
func (ls *lockSafe) exprIsIOLock(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return ls.iolocks[ls.pass.TypesInfo.Uses[e]]
	case *ast.SelectorExpr:
		if sel, ok := ls.pass.TypesInfo.Selections[e]; ok {
			return ls.iolocks[sel.Obj()]
		}
		return ls.iolocks[ls.pass.TypesInfo.Uses[e.Sel]]
	case *ast.UnaryExpr:
		return ls.exprIsIOLock(e.X)
	}
	return false
}

// walkStmts walks a statement list tracking held locks linearly. Branch
// bodies are walked with a copy of the held set (an unlock inside a
// conditional that returns does not release the main path's lock).
// Deferred unlocks pin the lock for the rest of the function. It returns
// the held set at the end of the list.
func (ls *lockSafe) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, stmt := range stmts {
		held = ls.walkStmt(stmt, held)
	}
	return held
}

func (ls *lockSafe) walkStmt(stmt ast.Stmt, held []heldLock) []heldLock {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, iolock, acquire, ok := ls.lockOp(call); ok {
				if acquire {
					return append(append([]heldLock(nil), held...), heldLock{name: name, iolock: iolock})
				}
				return releaseLock(held, name)
			}
		}
		ls.checkExpr(s.X, held)
	case *ast.DeferStmt:
		if name, _, acquire, ok := ls.lockOp(s.Call); ok && !acquire {
			// Deferred unlock: the lock stays held until return; nothing to
			// do — it simply is never popped on this path.
			_ = name
			return held
		}
		// Other deferred calls run at return time with an unknowable lock
		// state; skip them (deferred I/O after an unlock is the norm).
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			ls.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		ls.checkExpr(nil, held) // no-op; declarations with values below
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ls.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.checkExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = ls.walkStmt(s.Init, held)
		}
		ls.checkExpr(s.Cond, held)
		ls.walkStmts(s.Body.List, held)
		if s.Else != nil {
			ls.walkStmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = ls.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			ls.checkExpr(s.Cond, held)
		}
		ls.walkStmts(s.Body.List, held)
	case *ast.RangeStmt:
		ls.checkExpr(s.X, held)
		ls.walkStmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = ls.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.checkExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				ls.walkStmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				ls.walkStmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				ls.walkStmts(cc.Body, held)
			}
		}
	case *ast.BlockStmt:
		held = ls.walkStmts(s.List, held)
	case *ast.GoStmt:
		// The goroutine starts with no locks held; its body is covered by
		// the FuncLit walk when it blocks inside a lock it takes itself.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ls.walkStmts(lit.Body.List, nil)
		}
	case *ast.LabeledStmt:
		held = ls.walkStmt(s.Stmt, held)
	case *ast.SendStmt:
		ls.checkExpr(s.Value, held)
	}
	return held
}

// releaseLock pops the most recent held lock with the given name.
func releaseLock(held []heldLock, name string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].name == name {
			out := append([]heldLock(nil), held[:i]...)
			return append(out, held[i+1:]...)
		}
	}
	return held
}

// guardedBy returns the first held lock that forbids blocking calls.
func guardedBy(held []heldLock) (heldLock, bool) {
	for _, h := range held {
		if !h.iolock {
			return h, true
		}
	}
	return heldLock{}, false
}

// checkExpr reports blocking calls inside an expression evaluated while
// locks are held. Function literals are walked with an empty held set
// (they execute later) — callback-running APIs are out of scope.
func (ls *lockSafe) checkExpr(e ast.Expr, held []heldLock) {
	if e == nil {
		return
	}
	lock, guarded := guardedBy(held)
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ls.walkStmts(n.Body.List, nil)
			return false
		case *ast.CallExpr:
			if !guarded {
				return true
			}
			callee := ls.callee(n)
			if callee == nil {
				return true
			}
			if isBlockingExternal(callee) {
				ls.pass.Reportf(n.Pos(), "I/O while lock %s is held: call to %s (move the I/O outside the critical section, or declare the lock //ocblint:iolock if it exists to serialize I/O)", lock.name, callName(callee))
			} else if chain, ok := ls.blocking[callee]; ok {
				ls.pass.Reportf(n.Pos(), "I/O while lock %s is held: %s eventually blocks (%s → %s)", lock.name, callee.Name(), callee.Name(), chain)
			}
		}
		return true
	})
}

// lockHolder describes a type that transitively contains a sync lock.
func containsLock(t types.Type) (string, bool) {
	return containsLockRec(t, make(map[types.Type]bool))
}

func containsLockRec(t types.Type, seen map[types.Type]bool) (string, bool) {
	if seen[t] {
		return "", false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool":
				return "sync." + obj.Name(), true
			}
			return "", false
		}
		return containsLockRec(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if name, ok := containsLockRec(t.Field(i).Type(), seen); ok {
				return name, true
			}
		}
	case *types.Array:
		return containsLockRec(t.Elem(), seen)
	}
	return "", false
}

// exprType resolves an expression's type, falling back to the defined or
// used object for idents the checker records only in Defs/Uses (range
// variables, short-variable declarations).
func exprType(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// checkLockCopies rejects signatures and statements that copy a lock by
// value: value receivers, parameters, results, range-value copies and
// pointer-dereference assignments of lock-containing types.
func checkLockCopies(pass *analysis.Pass, fn *ast.FuncDecl) {
	checkField := func(f *ast.Field, what string) {
		tv, ok := pass.TypesInfo.Types[f.Type]
		if !ok {
			return
		}
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			return
		}
		if lock, ok := containsLock(tv.Type); ok {
			pass.Reportf(f.Pos(), "%s passes a lock by value: %s contains %s (use a pointer)", what, types.ExprString(f.Type), lock)
		}
	}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			checkField(f, "method "+fn.Name.Name)
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			checkField(f, "parameter of "+fn.Name.Name)
		}
	}
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			checkField(f, "result of "+fn.Name.Name)
		}
	}
	if fn.Body == nil {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			if t := exprType(pass, n.Value); t != nil {
				if lock, ok := containsLock(t); ok {
					pass.Reportf(n.Value.Pos(), "range copies a lock by value: element type contains %s (range over indices instead)", lock)
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				star, ok := ast.Unparen(rhs).(*ast.StarExpr)
				if !ok {
					continue
				}
				if tv, ok := pass.TypesInfo.Types[star]; ok {
					if lock, ok := containsLock(tv.Type); ok {
						pass.Reportf(rhs.Pos(), "assignment copies a lock by value: dereferenced value contains %s", lock)
					}
				}
			}
		}
		return true
	})
}
