package cql

import (
	"fmt"
	"strconv"
	"strings"
)

// scalar is a compiled expression over one binding: env[i] is the row bound
// to the i-th FROM ref.
type scalar func(env []Row) (any, error)

// compileScalar resolves e against the first scope FROM refs (a JOIN ON
// sees only the refs up to and including its own; everything else sees all).
func (p *plan) compileScalar(e Expr, scope int) (scalar, error) {
	switch x := e.(type) {
	case *NumberLit:
		return constant(x.V), nil
	case *StringLit:
		return constant(x.V), nil
	case *BoolLit:
		return constant(x.V), nil
	case *Ident:
		return p.compileIdent(x, scope)
	case *Unary:
		if x.Op != "-" && x.Op != "NOT" {
			return nil, fmt.Errorf("cql: unknown unary op %q", x.Op)
		}
		in, err := p.compileScalar(x.X, scope)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(env []Row) (any, error) {
			v, err := in(env)
			if err != nil {
				return nil, err
			}
			return unaryOp(op, v)
		}, nil
	case *Binary:
		l, err := p.compileScalar(x.Left, scope)
		if err != nil {
			return nil, err
		}
		r, err := p.compileScalar(x.Right, scope)
		if err != nil {
			return nil, err
		}
		op := x.Op
		if op == "AND" || op == "OR" {
			return func(env []Row) (any, error) {
				lv, err := l(env)
				if err != nil {
					return nil, err
				}
				res, done, err := logicLeft(op, lv)
				if done || err != nil {
					return res, err
				}
				rv, err := r(env)
				if err != nil {
					return nil, err
				}
				return logicRight(op, rv)
			}, nil
		}
		return func(env []Row) (any, error) {
			lv, err := l(env)
			if err != nil {
				return nil, err
			}
			rv, err := r(env)
			if err != nil {
				return nil, err
			}
			return binaryOp(op, lv, rv)
		}, nil
	case *Call:
		if aggregateFns[x.Fn] {
			return nil, fmt.Errorf("cql: aggregate %s used in scalar context", x.Fn)
		}
		return nil, fmt.Errorf("cql: unknown function %q", x.Fn)
	}
	return nil, fmt.Errorf("cql: cannot evaluate %T", e)
}

func constant(v any) scalar {
	return func([]Row) (any, error) { return v, nil }
}

// compileIdent resolves the stream binding at compile time. Which columns a
// row has is only known per tuple, so an unqualified name over several refs
// still searches them, and must find exactly one.
func (p *plan) compileIdent(id *Ident, scope int) (scalar, error) {
	name := id.Name
	if id.Qualifier != "" {
		slot := -1
		for i, r := range p.refs[:scope] {
			if r.name == id.Qualifier {
				slot = i
			}
		}
		if slot < 0 {
			// Reported when evaluated, like a missing column: the binding may
			// never be consulted.
			err := fmt.Errorf("cql: unknown stream binding %q", id.Qualifier)
			return func([]Row) (any, error) { return nil, err }, nil
		}
		qual := id.Qualifier
		return func(env []Row) (any, error) {
			v, ok := env[slot][name]
			if !ok {
				return nil, fmt.Errorf("cql: stream %q has no column %q", qual, name)
			}
			return v, nil
		}, nil
	}
	if scope == 1 {
		return func(env []Row) (any, error) {
			v, ok := env[0][name]
			if !ok {
				return nil, fmt.Errorf("cql: unknown column %q", name)
			}
			return v, nil
		}, nil
	}
	return func(env []Row) (any, error) {
		var found any
		hits := 0
		for _, row := range env[:scope] {
			if v, ok := row[name]; ok {
				found = v
				hits++
			}
		}
		switch hits {
		case 0:
			return nil, fmt.Errorf("cql: unknown column %q", name)
		case 1:
			return found, nil
		}
		return nil, fmt.Errorf("cql: ambiguous column %q (qualify it)", name)
	}, nil
}

func evalBool(e scalar, env []Row) (bool, error) {
	v, err := e(env)
	if err != nil {
		return false, err
	}
	bv, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("cql: predicate is %T, not boolean", v)
	}
	return bv, nil
}

func unaryOp(op string, v any) (any, error) {
	if op == "-" {
		f, err := toNum(v)
		if err != nil {
			return nil, err
		}
		return -f, nil
	}
	bv, ok := v.(bool)
	if !ok {
		return nil, fmt.Errorf("cql: NOT applied to non-boolean %T", v)
	}
	return !bv, nil
}

// logicLeft applies the left operand of AND/OR; done reports that it alone
// decides the result.
func logicLeft(op string, l any) (res any, done bool, err error) {
	lb, ok := l.(bool)
	if !ok {
		return nil, true, fmt.Errorf("cql: %s on non-boolean %T", op, l)
	}
	if (op == "AND") != lb {
		return lb, true, nil
	}
	return nil, false, nil
}

func logicRight(op string, r any) (any, error) {
	rb, ok := r.(bool)
	if !ok {
		return nil, fmt.Errorf("cql: %s on non-boolean %T", op, r)
	}
	return rb, nil
}

// binaryOp applies an arithmetic or comparison operator: two strings compare
// and concatenate as strings, anything else must be numeric.
func binaryOp(op string, l, r any) (any, error) {
	ls, lIsStr := l.(string)
	rs, rIsStr := r.(string)
	if lIsStr && rIsStr {
		switch op {
		case "=":
			return ls == rs, nil
		case "!=":
			return ls != rs, nil
		case "<":
			return ls < rs, nil
		case "<=":
			return ls <= rs, nil
		case ">":
			return ls > rs, nil
		case ">=":
			return ls >= rs, nil
		case "+":
			return ls + rs, nil
		}
		return nil, fmt.Errorf("cql: op %q on strings", op)
	}
	lf, err := toNum(l)
	if err != nil {
		return nil, err
	}
	rf, err := toNum(r)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("cql: division by zero")
		}
		return lf / rf, nil
	case "=":
		return lf == rf, nil
	case "!=":
		return lf != rf, nil
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	}
	return nil, fmt.Errorf("cql: unknown operator %q", op)
}

func toNum(v any) (float64, error) {
	switch n := v.(type) {
	case float64:
		return n, nil
	case int64:
		return float64(n), nil
	case int:
		return float64(n), nil
	case bool:
		if n {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("cql: %T is not numeric", v)
}

// appendKeyPart canonicalises one value for row and GROUP BY keys with a type
// tag, so values that print alike but differ in type — int64(1), float64(1),
// "1" — cannot collide (a collision corrupts the IStream/DStream bag diff and
// merges distinct groups). Strings are quoted so embedded separators cannot
// forge a composite key either.
func appendKeyPart(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, '_')
	case string:
		return strconv.AppendQuote(append(b, "s:"...), x)
	case bool:
		return strconv.AppendBool(append(b, "b:"...), x)
	case int64:
		return strconv.AppendInt(append(b, "i:"...), x, 10)
	case float64:
		return strconv.AppendFloat(append(b, "f:"...), x, 'g', -1, 64)
	default:
		return fmt.Appendf(b, "%T:%v", x, x)
	}
}

// appendRowKey canonicalises a row for bag comparison and output order; cols
// is sorted, so equal rows give equal keys.
func appendRowKey(b []byte, cols []string, vals []any) []byte {
	for i, c := range cols {
		b = append(b, c...)
		b = append(b, '=')
		b = appendKeyPart(b, vals[i])
		b = append(b, ';')
	}
	return b
}

// exprKey canonicalises an expression for GROUP BY matching.
func exprKey(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		if x.Qualifier != "" {
			return x.Qualifier + "." + x.Name
		}
		return x.Name
	case *NumberLit:
		return fmt.Sprint(x.V)
	case *StringLit:
		return "'" + x.V + "'"
	case *BoolLit:
		return fmt.Sprint(x.V)
	case *Binary:
		return "(" + exprKey(x.Left) + x.Op + exprKey(x.Right) + ")"
	case *Unary:
		return x.Op + exprKey(x.X)
	case *Call:
		var args []string
		if x.Star {
			args = append(args, "*")
		}
		for _, a := range x.Args {
			args = append(args, exprKey(a))
		}
		return x.Fn + "(" + strings.Join(args, ",") + ")"
	}
	return "?"
}
