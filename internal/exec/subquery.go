package exec

import (
	"fmt"

	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// bindSubqueryCheck filters the tuple stream through an existential or
// universal quantifier. The input is materialized once when it has no
// dependencies on this box's quantifiers (the set-oriented case a
// decorrelated plan reaches) — with a hash fast path for equality tie
// predicates — and re-evaluated per tuple otherwise (nested iteration).
func (ex *Exec) bindSubqueryCheck(st *planStep, tuples []*Env, env *Env) ([]*Env, error) {
	q := st.q
	if st.correlated() {
		// Correlated to sibling quantifiers. Under BatchCorrelated the
		// whole outer stream evaluates set-at-a-time; the quantifier
		// condition is order-insensitive over each tuple's materialized
		// rows, so probing the batched results per tuple is exactly the
		// per-tuple evaluation below.
		if per, ok, err := ex.batchSubqueryRows(st, tuples, env); err != nil {
			return nil, err
		} else if ok {
			kept, err := parallelChunks(ex, len(tuples), subqMorsel, func(lo, hi int) ([]*Env, error) {
				var out []*Env
				for i := lo; i < hi; i++ {
					pass, err := ex.quantCond(q, st.ties, per[i], tuples[i])
					if err != nil {
						return nil, err
					}
					if pass {
						out = append(out, tuples[i])
					}
				}
				return out, nil
			})
			if err != nil {
				return nil, err
			}
			return concat(kept), nil
		}
		// Evaluate per tuple: the nested-iteration hot loop, fanned out
		// over outer bindings.
		return parallelFilter(ex, tuples, subqMorsel, func(t *Env) (bool, error) {
			rows, err := ex.evalSubqueryInput(q.Input, t)
			if err != nil {
				return false, err
			}
			return ex.quantCond(q, st.ties, rows, t)
		})
	}

	rows, err := ex.evalSubqueryInput(q.Input, env)
	if err != nil {
		return nil, err
	}

	// Hash fast path: all ties are equalities between a probe expression
	// (bound/outer side) and a subquery-side expression.
	if st.tieHash {
		if err := ex.hashBuildCheck(rows); err != nil {
			return nil, err
		}
		bump(&ex.Stats.HashBuilds, 1)
		type buildKey struct {
			key  string
			skip bool
		}
		keys, err := parallelMap(ex, rows, rowMorsel, func(r storage.Row) (buildKey, error) {
			renv := Bind(env, q, r)
			key, null, err := ex.keyFor(st.tieSub, renv)
			if err != nil {
				return buildKey{}, err
			}
			// A NULL component can never satisfy the equality.
			return buildKey{key: key, skip: null}, nil
		})
		if err != nil {
			return nil, err
		}
		h := make(map[string]bool, len(rows))
		for _, bk := range keys {
			if !bk.skip {
				h[bk.key] = true
			}
		}
		return parallelFilter(ex, tuples, rowMorsel, func(t *Env) (bool, error) {
			key, null, err := ex.keyFor(st.tieProbe, t)
			if err != nil {
				return false, err
			}
			switch q.Kind {
			case qgm.QExists, qgm.QAny:
				return !null && h[key], nil
			case qgm.QNotExists:
				return null || !h[key], nil
			}
			return false, nil
		})
	}

	// General slow path over the materialized rows.
	return parallelFilter(ex, tuples, rowMorsel, func(t *Env) (bool, error) {
		return ex.quantCond(q, st.ties, rows, t)
	})
}

// quantCond evaluates the quantifier condition for one outer tuple against
// materialized subquery rows, with full three-valued-logic semantics:
//
//	EXISTS      — some row satisfies all ties (TRUE only);
//	NOT EXISTS  — no row does;
//	ANY         — some row compares TRUE;
//	ALL         — every row compares TRUE (vacuously true when empty; a
//	              FALSE or UNKNOWN row fails the predicate, which matches
//	              SQL's rule that only an overall TRUE passes WHERE).
func (ex *Exec) quantCond(q *qgm.Quantifier, ties []qgm.Expr, rows []storage.Row, t *Env) (bool, error) {
	rowTruth := func(r storage.Row) (sqltypes.Tri, error) {
		renv := Bind(t, q, r)
		acc := sqltypes.True
		for _, p := range ties {
			tr, err := ex.EvalPred(p, renv)
			if err != nil {
				return sqltypes.Unknown, err
			}
			acc = acc.And(tr)
			if acc == sqltypes.False {
				return sqltypes.False, nil
			}
		}
		return acc, nil
	}
	switch q.Kind {
	case qgm.QExists, qgm.QAny:
		for _, r := range rows {
			tr, err := rowTruth(r)
			if err != nil {
				return false, err
			}
			if tr == sqltypes.True {
				return true, nil
			}
		}
		return false, nil
	case qgm.QNotExists:
		for _, r := range rows {
			tr, err := rowTruth(r)
			if err != nil {
				return false, err
			}
			if tr == sqltypes.True {
				return false, nil
			}
		}
		return true, nil
	case qgm.QAll:
		for _, r := range rows {
			tr, err := rowTruth(r)
			if err != nil {
				return false, err
			}
			if tr != sqltypes.True {
				return false, nil
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("exec: quantCond on %v quantifier", q.Kind)
}
