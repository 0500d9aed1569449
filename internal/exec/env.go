// Package exec evaluates QGM graphs against stored tables. It is a
// volcano-flavored interpreter with a small greedy join planner: hash joins
// on equality predicates, index lookups on base tables, and per-tuple
// re-evaluation of correlated subqueries. Running an *un-rewritten*
// correlated graph therefore is exactly the paper's "nested iteration"
// strategy, while running a decorrelated graph is set-oriented — the cost
// difference between strategies emerges from the same interpreter.
package exec

import (
	"fmt"

	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// Env is a chain of quantifier bindings supplying values for (possibly
// correlated) column references during evaluation.
type Env struct {
	parent *Env
	q      *qgm.Quantifier
	row    storage.Row
}

// Bind extends env with a binding of q to row.
func Bind(parent *Env, q *qgm.Quantifier, row storage.Row) *Env {
	return &Env{parent: parent, q: q, row: row}
}

// Get returns the row bound to q, walking outward.
func (e *Env) Get(q *qgm.Quantifier) (storage.Row, bool) {
	for x := e; x != nil; x = x.parent {
		if x.q == q {
			return x.row, true
		}
	}
	return nil, false
}

// EvalExpr computes a scalar expression under env.
func (ex *Exec) EvalExpr(e qgm.Expr, env *Env) (sqltypes.Value, error) {
	switch x := e.(type) {
	case *qgm.ColRef:
		row, ok := env.Get(x.Q)
		if !ok {
			return sqltypes.Null, fmt.Errorf("exec: unbound quantifier %s", x.Q.Name())
		}
		if x.Col >= len(row) {
			return sqltypes.Null, fmt.Errorf("exec: column %d out of range for %s (row width %d)",
				x.Col, x.Q.Name(), len(row))
		}
		return row[x.Col], nil
	case *qgm.Const:
		return x.V, nil
	case *qgm.Param:
		if x.Idx < 0 || x.Idx >= len(ex.opts.Params) {
			return sqltypes.Null, fmt.Errorf("exec: parameter ?%d not bound (%d values supplied)",
				x.Idx+1, len(ex.opts.Params))
		}
		return ex.opts.Params[x.Idx], nil
	case *qgm.Bin:
		switch x.Op {
		case qgm.OpAdd, qgm.OpSub, qgm.OpMul, qgm.OpDiv:
			l, err := ex.EvalExpr(x.L, env)
			if err != nil {
				return sqltypes.Null, err
			}
			r, err := ex.EvalExpr(x.R, env)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.Arith(arithOf(x.Op), l, r)
		default:
			t, err := ex.EvalPred(e, env)
			if err != nil {
				return sqltypes.Null, err
			}
			return triValue(t), nil
		}
	case *qgm.Not, *qgm.IsNull, *qgm.Like:
		t, err := ex.EvalPred(e, env)
		if err != nil {
			return sqltypes.Null, err
		}
		return triValue(t), nil
	case *qgm.Func:
		return ex.evalFunc(x, env)
	case *qgm.Case:
		for _, w := range x.Whens {
			t, err := ex.EvalPred(w.Cond, env)
			if err != nil {
				return sqltypes.Null, err
			}
			if t == sqltypes.True {
				return ex.EvalExpr(w.Result, env)
			}
		}
		if x.Else != nil {
			return ex.EvalExpr(x.Else, env)
		}
		return sqltypes.Null, nil
	case *qgm.Agg:
		return sqltypes.Null, fmt.Errorf("exec: aggregate evaluated outside a group box")
	}
	return sqltypes.Null, fmt.Errorf("exec: unknown expression %T", e)
}

func triValue(t sqltypes.Tri) sqltypes.Value {
	if t == sqltypes.Unknown {
		return sqltypes.Null
	}
	return sqltypes.NewBool(t == sqltypes.True)
}

func arithOf(op qgm.Op) sqltypes.ArithOp {
	switch op {
	case qgm.OpAdd:
		return sqltypes.OpAdd
	case qgm.OpSub:
		return sqltypes.OpSub
	case qgm.OpMul:
		return sqltypes.OpMul
	}
	return sqltypes.OpDiv
}

func (ex *Exec) evalFunc(f *qgm.Func, env *Env) (sqltypes.Value, error) {
	args := make([]sqltypes.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := ex.EvalExpr(a, env)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	return applyFunc(f.Name, args)
}

// applyFunc computes a scalar function over evaluated arguments.
func applyFunc(name string, args []sqltypes.Value) (sqltypes.Value, error) {
	switch name {
	case "coalesce":
		return sqltypes.Coalesce(args...), nil
	case "abs":
		if len(args) != 1 {
			return sqltypes.Null, fmt.Errorf("exec: abs takes one argument")
		}
		v := args[0]
		switch v.K {
		case sqltypes.KindNull:
			return sqltypes.Null, nil
		case sqltypes.KindInt:
			if v.I < 0 {
				return sqltypes.NewInt(-v.I), nil
			}
			return v, nil
		case sqltypes.KindFloat:
			if v.F < 0 {
				return sqltypes.NewFloat(-v.F), nil
			}
			return v, nil
		}
		return sqltypes.Null, fmt.Errorf("exec: abs of %s", v.K)
	}
	return sqltypes.Null, fmt.Errorf("exec: unknown function %q", name)
}

// EvalPred computes a predicate in SQL three-valued logic under env.
func (ex *Exec) EvalPred(e qgm.Expr, env *Env) (sqltypes.Tri, error) {
	switch x := e.(type) {
	case *qgm.Bin:
		switch x.Op {
		case qgm.OpAnd:
			l, err := ex.EvalPred(x.L, env)
			if err != nil {
				return sqltypes.Unknown, err
			}
			if l == sqltypes.False {
				return sqltypes.False, nil
			}
			r, err := ex.EvalPred(x.R, env)
			if err != nil {
				return sqltypes.Unknown, err
			}
			return l.And(r), nil
		case qgm.OpOr:
			l, err := ex.EvalPred(x.L, env)
			if err != nil {
				return sqltypes.Unknown, err
			}
			if l == sqltypes.True {
				return sqltypes.True, nil
			}
			r, err := ex.EvalPred(x.R, env)
			if err != nil {
				return sqltypes.Unknown, err
			}
			return l.Or(r), nil
		}
		if x.Op.IsComparison() {
			l, err := ex.EvalExpr(x.L, env)
			if err != nil {
				return sqltypes.Unknown, err
			}
			r, err := ex.EvalExpr(x.R, env)
			if err != nil {
				return sqltypes.Unknown, err
			}
			return comparePred(x.Op, l, r), nil
		}
		// Arithmetic used in boolean position: nonsense, reject.
		return sqltypes.Unknown, fmt.Errorf("exec: %s is not a predicate", x.Op)
	case *qgm.Not:
		t, err := ex.EvalPred(x.E, env)
		if err != nil {
			return sqltypes.Unknown, err
		}
		return t.Not(), nil
	case *qgm.IsNull:
		v, err := ex.EvalExpr(x.E, env)
		if err != nil {
			return sqltypes.Unknown, err
		}
		res := v.IsNull()
		if x.Negate {
			res = !res
		}
		return sqltypes.TriOf(res), nil
	case *qgm.Like:
		v, err := ex.EvalExpr(x.E, env)
		if err != nil {
			return sqltypes.Unknown, err
		}
		p, err := ex.EvalExpr(x.Pattern, env)
		if err != nil {
			return sqltypes.Unknown, err
		}
		t := sqltypes.Like(v, p)
		if x.Negate {
			t = t.Not()
		}
		return t, nil
	case *qgm.Const:
		if x.V.IsNull() {
			return sqltypes.Unknown, nil
		}
		if x.V.K == sqltypes.KindBool {
			return sqltypes.TriOf(x.V.B), nil
		}
		// Numeric truthiness is not SQL; reject to catch binder bugs.
		return sqltypes.Unknown, fmt.Errorf("exec: non-boolean constant %s used as predicate", x.V)
	case *qgm.ColRef, *qgm.Case, *qgm.Func, *qgm.Param:
		v, err := ex.EvalExpr(x, env)
		if err != nil {
			return sqltypes.Unknown, err
		}
		if v.IsNull() {
			return sqltypes.Unknown, nil
		}
		if v.K == sqltypes.KindBool {
			return sqltypes.TriOf(v.B), nil
		}
		return sqltypes.Unknown, fmt.Errorf("exec: non-boolean value used as predicate")
	}
	return sqltypes.Unknown, fmt.Errorf("exec: unknown predicate %T", e)
}

func comparePred(op qgm.Op, l, r sqltypes.Value) sqltypes.Tri {
	c, ok := sqltypes.Compare(l, r)
	if !ok {
		return sqltypes.Unknown
	}
	switch op {
	case qgm.OpEq:
		return sqltypes.TriOf(c == 0)
	case qgm.OpNe:
		return sqltypes.TriOf(c != 0)
	case qgm.OpLt:
		return sqltypes.TriOf(c < 0)
	case qgm.OpLe:
		return sqltypes.TriOf(c <= 0)
	case qgm.OpGt:
		return sqltypes.TriOf(c > 0)
	case qgm.OpGe:
		return sqltypes.TriOf(c >= 0)
	}
	return sqltypes.Unknown
}
