package streamvet

import (
	"go/ast"
	"go/types"
)

// NewPoolRetain builds the poolretain analyzer. elemTypes are the qualified
// names ("pkgpath.Name") of event types whose pooled batch slices must not be
// retained: any value of type *[]E for a configured E is treated as a pooled
// batch (that is exactly the type the exchange pool traffics in), as is the
// result of a (*sync.Pool).Get type-asserted to a pointer-to-slice or slice
// type. The []E parameter of a method named ProcessBatch is pooled too: the
// runtime hands a BatchOperator the exchange batch itself and recycles it when
// the call returns, so that parameter is checked exactly like a *[]E handle.
//
// A pooled batch — or any alias that shares its backing array: the
// dereferenced slice, a sub-slice, an element pointer, or an append to the
// batch that may reuse its backing — must not outlive the call that received
// it. The analyzer reports storing such a value in a struct field, a
// package-level variable, or a container that outlives the call; sending it
// on a channel; returning it; or capturing it in a goroutine or an escaping
// closure. Passing the batch to an ordinary call is permitted: that is the
// ownership handoff the exchange itself performs.
func NewPoolRetain(elemTypes []string) *Analyzer {
	elems := make(map[string]bool, len(elemTypes))
	for _, t := range elemTypes {
		elems[t] = true
	}
	a := &Analyzer{
		Name: "poolretain",
		Doc:  "reports pooled exchange batches (or aliases of them) retained past the receiving call",
	}
	a.Run = func(pass *Pass) error {
		pr := &poolRetain{pass: pass, elems: elems}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						pr.checkFunc(fn)
					}
					return false // checkFunc covers nested FuncLits
				}
				return true
			})
		}
		return nil
	}
	return a
}

type poolRetain struct {
	pass  *Pass
	elems map[string]bool
	// tainted holds local variables bound to a pooled batch or an alias of
	// one, per analyzed function.
	tainted map[types.Object]bool
}

// isPooledPtrType reports whether t is *[]E for a configured element type E —
// the shape of a pooled batch handle.
func (pr *poolRetain) isPooledPtrType(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	return pr.isBatchType(ptr.Elem())
}

// isBatchType reports whether t is []E for a configured element type E.
func (pr *poolRetain) isBatchType(t types.Type) bool {
	slice, ok := types.Unalias(t).(*types.Slice)
	return ok && pr.elems[qualifiedTypeName(types.Unalias(slice.Elem()))]
}

// isPoolGetAssert reports whether e is `pool.Get().(*[]T)` or
// `pool.Get().([]T)` for a sync.Pool — a pooled value regardless of the
// element type.
func (pr *poolRetain) isPoolGetAssert(e *ast.TypeAssertExpr) bool {
	call, ok := e.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	recv := pr.pass.TypesInfo.Types[sel.X].Type
	if recv == nil {
		return false
	}
	if ptr, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if qualifiedTypeName(types.Unalias(recv)) != "sync.Pool" {
		return false
	}
	asserted := pr.pass.TypesInfo.Types[e.Type].Type
	if asserted == nil {
		return false
	}
	asserted = types.Unalias(asserted)
	if ptr, ok := asserted.(*types.Pointer); ok {
		asserted = types.Unalias(ptr.Elem())
	}
	_, isSlice := asserted.(*types.Slice)
	return isSlice
}

// taintedExpr reports whether e evaluates to a pooled batch or an alias
// sharing its backing array.
func (pr *poolRetain) taintedExpr(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if tv, ok := pr.pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		// nil and constants carry the contextual type but never alias a pool.
		if tv.IsNil() || tv.Value != nil {
			return false
		}
		if pr.isPooledPtrType(tv.Type) {
			return true
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := pr.pass.TypesInfo.Uses[x]
		return obj != nil && pr.tainted[obj]
	case *ast.ParenExpr:
		return pr.taintedExpr(x.X)
	case *ast.StarExpr:
		// Dereferencing a pooled pointer yields the pooled slice itself.
		return pr.taintedExpr(x.X)
	case *ast.SliceExpr:
		// A sub-slice shares the batch's backing array.
		return pr.taintedExpr(x.X)
	case *ast.TypeAssertExpr:
		return pr.isPoolGetAssert(x) || pr.taintedExpr(x.X)
	case *ast.UnaryExpr:
		// &batch[i] aliases an element of the backing array. batch[i] alone
		// is a value copy of the element and is safe.
		if x.Op.String() == "&" {
			if idx, ok := x.X.(*ast.IndexExpr); ok {
				return pr.taintedExpr(idx.X)
			}
			return pr.taintedExpr(x.X)
		}
	case *ast.CallExpr:
		// append(batch, ...) may return the batch's own backing array, and
		// append(dst, &batch[i]) carries an alias into dst. Spreading a
		// batch's elements into another slice (append(dst, batch...)) copies
		// them and is safe.
		if fun, ok := x.Fun.(*ast.Ident); ok && fun.Name == "append" && len(x.Args) > 0 {
			args := x.Args
			if x.Ellipsis.IsValid() {
				args = args[:len(args)-1]
			}
			for _, a := range args {
				if pr.taintedExpr(a) {
					return true
				}
			}
		}
	case *ast.CompositeLit:
		// A composite value embedding the batch carries the alias.
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if pr.taintedExpr(kv.Value) {
					return true
				}
			} else if pr.taintedExpr(elt) {
				return true
			}
		}
	case *ast.FuncLit:
		// A closure referencing the batch carries the alias if it escapes.
		found := false
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				obj := pr.pass.TypesInfo.Uses[id]
				if obj == nil {
					return true
				}
				// Only captures alias the enclosing call's batch; the
				// closure's own parameters and locals are handed fresh values
				// by its future callers.
				if obj.Pos() >= x.Pos() && obj.Pos() <= x.End() {
					return true
				}
				// Tainted local, or any variable of the pooled handle type
				// (parameters and fields are pooled by type, not by
				// assignment).
				if pr.tainted[obj] || pr.isPooledPtrType(obj.Type()) {
					found = true
				}
			}
			return true
		})
		return found
	}
	return false
}

// checkFunc analyzes one function body: first a fixpoint pass propagating
// taint through local assignments, then a reporting pass over the escape
// points. A ProcessBatch method's []E parameters start out tainted.
func (pr *poolRetain) checkFunc(fn *ast.FuncDecl) {
	body := fn.Body
	pr.tainted = make(map[types.Object]bool)
	if fn.Recv != nil && fn.Name.Name == "ProcessBatch" {
		for _, field := range fn.Type.Params.List {
			for _, id := range field.Names {
				if obj := pr.pass.TypesInfo.Defs[id]; obj != nil && pr.isBatchType(obj.Type()) {
					pr.tainted[obj] = true
				}
			}
		}
	}
	// Fixpoint: a local bound to a tainted expression becomes tainted, which
	// can make further expressions tainted.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := pr.pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pr.pass.TypesInfo.Uses[id]
					}
					if obj == nil || pr.tainted[obj] {
						continue
					}
					if isLocalVar(obj) && pr.taintedExpr(s.Rhs[i]) {
						pr.tainted[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) != len(s.Values) {
					return true
				}
				for i, id := range s.Names {
					obj := pr.pass.TypesInfo.Defs[id]
					if obj == nil || pr.tainted[obj] {
						continue
					}
					if isLocalVar(obj) && pr.taintedExpr(s.Values[i]) {
						pr.tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if !pr.taintedExpr(s.Rhs[i]) {
					continue
				}
				pr.checkStore(lhs, s.Rhs[i])
			}
		case *ast.SendStmt:
			if pr.taintedExpr(s.Value) {
				pr.pass.Reportf(s.Arrow, "pooled batch (or an alias of its backing array) sent on a channel; pooled exchange batches must not outlive the call that received them")
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if pr.taintedExpr(r) {
					pr.pass.Reportf(r.Pos(), "pooled batch (or an alias of its backing array) returned from the function; pooled exchange batches must not outlive the call that received them")
				}
			}
		case *ast.GoStmt:
			if pr.taintedExpr(s.Call.Fun) {
				pr.pass.Reportf(s.Pos(), "pooled batch captured by a goroutine; the goroutine may outlive the call that received the batch")
				return true
			}
			for _, arg := range s.Call.Args {
				if pr.taintedExpr(arg) {
					pr.pass.Reportf(s.Pos(), "pooled batch passed to a goroutine; the goroutine may outlive the call that received the batch")
					break
				}
			}
		}
		return true
	})
}

// checkStore reports a tainted value stored anywhere that outlives the call:
// a struct field, a package-level variable, or a container reached through
// one. Stores into the pooled batch itself (e.g. *b = (*b)[:0], b[i] = e) are
// the intended use and stay silent; so do rebindings of local variables,
// which the taint fixpoint already tracks.
func (pr *poolRetain) checkStore(lhs, rhs ast.Expr) {
	switch l := lhs.(type) {
	case *ast.Ident:
		obj := pr.pass.TypesInfo.Defs[l]
		if obj == nil {
			obj = pr.pass.TypesInfo.Uses[l]
		}
		if obj != nil && !isLocalVar(obj) {
			pr.pass.Reportf(rhs.Pos(), "pooled batch (or an alias of its backing array) stored in package-level variable %s; pooled exchange batches must not outlive the call that received them", l.Name)
		}
	case *ast.SelectorExpr:
		pr.pass.Reportf(rhs.Pos(), "pooled batch (or an alias of its backing array) stored in struct field or package variable %s; pooled exchange batches must not outlive the call that received them", l.Sel.Name)
	case *ast.IndexExpr:
		if !pr.taintedExpr(l.X) {
			pr.pass.Reportf(rhs.Pos(), "pooled batch (or an alias of its backing array) stored in a container that outlives the call; pooled exchange batches must not be retained")
		}
	case *ast.StarExpr:
		if !pr.taintedExpr(l.X) {
			pr.pass.Reportf(rhs.Pos(), "pooled batch (or an alias of its backing array) stored through a pointer that outlives the call; pooled exchange batches must not be retained")
		}
	case *ast.ParenExpr:
		pr.checkStore(l.X, rhs)
	}
}

// isLocalVar reports whether obj is a function-scoped variable (including
// parameters and named results).
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.IsField() {
		return false
	}
	// Package-level variables have the package scope as parent.
	return v.Parent() == nil || v.Parent() != v.Pkg().Scope()
}
