package exec

import (
	"fmt"

	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// evalSelect evaluates an SPJ box: phase 1 (selectTuples) produces the
// bound tuple stream, phase 2 (projectTuples) evaluates the output
// expressions, and DISTINCT dedups last. The streaming iterator drives the
// same two phases with phase 2 batched.
func (ex *Exec) evalSelect(b *qgm.Box, env *Env) ([]storage.Row, error) {
	tuples, err := ex.selectTuples(b, env)
	if err != nil || len(tuples) == 0 {
		return nil, err
	}
	out, err := ex.projectTuples(b, tuples)
	if err != nil {
		return nil, err
	}
	if b.Distinct {
		out = dedupeRows(out)
	}
	return out, nil
}

// selectTuples is phase 1 of select evaluation: it walks the box's
// compiled plan (planorder.go) — the join order, with scalar and
// existential/universal quantifiers placed where the paper's optimizer
// placed subqueries (§5.3, Query 1 vs Query 2), and each quantifier's
// index probe, hash join or cross product — re-evaluating correlated
// subquery inputs per outer tuple (nested iteration). The result is the
// fully bound, fully filtered tuple stream awaiting projection.
func (ex *Exec) selectTuples(b *qgm.Box, env *Env) ([]*Env, error) {
	return ex.selectTuplesSkip(b, env, nil)
}

// selectTuplesSkip is selectTuples with a predicate skip set: the batched
// subquery path strips the correlated equalities (identified by pointer
// identity) from the root and re-applies their filtering as a
// partition/probe step. A skipped predicate is left out of the compiled
// plan, so it cannot drive index or hash-join placement either — the
// set-oriented execution deliberately trades those per-binding access
// paths for one shared pass.
func (ex *Exec) selectTuplesSkip(b *qgm.Box, env *Env, skip map[qgm.Expr]bool) ([]*Env, error) {
	plan := ex.planOf(b, skip)
	if plan.err != nil {
		return nil, plan.err
	}
	tuples, err := ex.filterTuples([]*Env{env}, plan.pre)
	if err != nil {
		return nil, err
	}
	for i := range plan.steps {
		if len(tuples) == 0 {
			return nil, nil
		}
		st := &plan.steps[i]
		switch st.access {
		case accScalar:
			tuples, err = ex.bindScalar(st, tuples, env)
		case accQuant:
			tuples, err = ex.bindSubqueryCheck(st, tuples, env)
		case accLateral:
			tuples, err = ex.bindLateral(st.q, tuples)
		default:
			tuples, err = ex.bindForEach(st, tuples, env)
		}
		if err != nil {
			return nil, err
		}
		if tuples, err = ex.filterTuples(tuples, st.after); err != nil {
			return nil, err
		}
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	return tuples, nil
}

// filterTuples keeps the tuples on which every predicate is TRUE, one
// predicate per pass.
func (ex *Exec) filterTuples(tuples []*Env, preds []qgm.Expr) ([]*Env, error) {
	for _, p := range preds {
		kept, err := parallelFilter(ex, tuples, rowMorsel, func(t *Env) (bool, error) {
			tr, err := ex.EvalPred(p, t)
			if err != nil {
				return false, err
			}
			return tr == sqltypes.True, nil
		})
		if err != nil {
			return nil, err
		}
		tuples = kept
	}
	return tuples, nil
}

// projectTuples is phase 2 of select evaluation: the output expressions
// over an already bound and filtered tuple stream (or one batch of it).
func (ex *Exec) projectTuples(b *qgm.Box, tuples []*Env) ([]storage.Row, error) {
	return parallelMap(ex, tuples, rowMorsel, func(t *Env) (storage.Row, error) {
		row := make(storage.Row, len(b.Cols))
		for i, c := range b.Cols {
			v, err := ex.EvalExpr(c.Expr, t)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return row, nil
	})
}

// bindLateral joins a derived table that references sibling quantifiers
// (the paper's Query 3 style), re-evaluating it per tuple. The per-tuple
// re-evaluations fan out across workers — this is the nested-iteration hot
// loop, so one morsel is only a few tuples.
func (ex *Exec) bindLateral(q *qgm.Quantifier, tuples []*Env) ([]*Env, error) {
	out, err := parallelFlatMap(ex, tuples, subqMorsel, func(t *Env) ([]*Env, error) {
		rows, err := ex.evalSubqueryInput(q.Input, t)
		if err != nil {
			return nil, err
		}
		bound := make([]*Env, len(rows))
		for i, r := range rows {
			bound[i] = Bind(t, q, r)
		}
		return bound, nil
	})
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsJoined, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// bindScalar joins a scalar subquery quantifier into the tuple stream. An
// input with no own-quantifier dependencies is evaluated once per
// select-box evaluation; otherwise per tuple (nested iteration).
func (ex *Exec) bindScalar(st *planStep, tuples []*Env, env *Env) ([]*Env, error) {
	q := st.q
	width := len(q.Input.Cols)
	if !st.correlated() {
		rows, err := ex.evalSubqueryInput(q.Input, env)
		if err != nil {
			return nil, err
		}
		row, err := scalarRow(rows, width)
		if err != nil {
			return nil, err
		}
		out := make([]*Env, len(tuples))
		for i, t := range tuples {
			out[i] = Bind(t, q, row)
		}
		return out, nil
	}
	// Correlated. Under BatchCorrelated the whole outer stream evaluates
	// set-at-a-time; the at-most-one-row check applies per tuple to its
	// probed rows, so cardinality errors surface exactly as in the
	// per-tuple loop below.
	if per, ok, err := ex.batchSubqueryRows(st, tuples, env); err != nil {
		return nil, err
	} else if ok {
		chunks, err := parallelChunks(ex, len(tuples), subqMorsel, func(lo, hi int) ([]*Env, error) {
			out := make([]*Env, 0, hi-lo)
			for i := lo; i < hi; i++ {
				row, err := scalarRow(per[i], width)
				if err != nil {
					return nil, err
				}
				out = append(out, Bind(tuples[i], q, row))
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		return concat(chunks), nil
	}
	// One subquery evaluation per outer tuple, fanned out.
	return parallelMap(ex, tuples, subqMorsel, func(t *Env) (*Env, error) {
		rows, err := ex.evalSubqueryInput(q.Input, t)
		if err != nil {
			return nil, err
		}
		row, err := scalarRow(rows, width)
		if err != nil {
			return nil, err
		}
		return Bind(t, q, row), nil
	})
}

func scalarRow(rows []storage.Row, width int) (storage.Row, error) {
	switch len(rows) {
	case 0:
		return nullRow(width), nil
	case 1:
		return rows[0], nil
	}
	return nil, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
}

// bindForEach joins the next ForEach quantifier into the tuple stream
// through the access path its plan step chose: index probe, hash join, or
// nested loops.
func (ex *Exec) bindForEach(st *planStep, tuples []*Env, env *Env) ([]*Env, error) {
	if st.access == accIndex {
		return ex.indexBind(st, tuples)
	}
	q := st.q
	// Materialize and filter by local predicates.
	var rows []storage.Row
	if q.Input.Kind == qgm.BoxBase {
		if st.tbl == nil {
			return nil, fmt.Errorf("exec: table %q has no storage", q.Input.Table.Name)
		}
		scanned, err := st.tbl.Scan()
		if err != nil {
			return nil, err
		}
		bump(&ex.Stats.RowsScanned, int64(len(scanned)))
		if err := ex.govRows(len(scanned)); err != nil {
			return nil, err
		}
		ex.recordProfile(q.Input, len(scanned), 0)
		rows = scanned
	} else {
		var err error
		rows, err = ex.evalBox(q.Input, env)
		if err != nil {
			return nil, err
		}
	}
	rows, err := ex.filterLocal(q, st.local, rows, env)
	if err != nil {
		return nil, err
	}
	if st.access == accHash {
		if err := ex.hashBuildCheck(rows); err != nil {
			return nil, err
		}
		bump(&ex.Stats.HashBuilds, 1)
		// Build side: hash keys evaluate in parallel, the table fills
		// sequentially in row order so every bucket chain — and therefore
		// probe emission order — is deterministic.
		type buildKey struct {
			key  string
			skip bool
		}
		keys, err := parallelMap(ex, rows, rowMorsel, func(r storage.Row) (buildKey, error) {
			renv := Bind(env, q, r)
			key, null, err := ex.keyFor(st.buildKeys, renv)
			if err != nil {
				return buildKey{}, err
			}
			return buildKey{key: key, skip: null}, nil
		})
		if err != nil {
			return nil, err
		}
		h := make(map[string][]int, len(rows))
		for i, bk := range keys {
			if !bk.skip {
				h[bk.key] = append(h[bk.key], i)
			}
		}
		out, err := parallelFlatMap(ex, tuples, rowMorsel, func(t *Env) ([]*Env, error) {
			key, null, err := ex.keyFor(st.probeKeys, t)
			if err != nil {
				return nil, err
			}
			if null {
				return nil, nil
			}
			ids := h[key]
			matched := make([]*Env, len(ids))
			for i, id := range ids {
				matched[i] = Bind(t, q, rows[id])
			}
			return matched, nil
		})
		if err != nil {
			return nil, err
		}
		bump(&ex.Stats.RowsJoined, int64(len(out)))
		if err := ex.govRows(len(out)); err != nil {
			return nil, err
		}
		return out, nil
	}
	// Nested-loop (cross product; residual predicates apply after the step).
	out, err := parallelFlatMap(ex, tuples, rowMorsel, func(t *Env) ([]*Env, error) {
		joined := make([]*Env, len(rows))
		for i, r := range rows {
			joined[i] = Bind(t, q, r)
		}
		return joined, nil
	})
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsJoined, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// keyFor evaluates the key expressions under env; null=true when any
// component is NULL (null join keys never match).
func (ex *Exec) keyFor(exprs []qgm.Expr, env *Env) (string, bool, error) {
	vals := make([]sqltypes.Value, len(exprs))
	for i, e := range exprs {
		v, err := ex.EvalExpr(e, env)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		vals[i] = v
	}
	return string(sqltypes.AppendKey(nil, vals...)), false, nil
}

// filterLocal applies the predicates over q alone (plus outer bindings)
// to q's input rows.
func (ex *Exec) filterLocal(q *qgm.Quantifier, local []qgm.Expr, rows []storage.Row, env *Env) ([]storage.Row, error) {
	if len(local) == 0 {
		return rows, nil
	}
	return parallelFilter(ex, rows, rowMorsel, func(r storage.Row) (bool, error) {
		renv := Bind(env, q, r)
		for _, p := range local {
			tr, err := ex.EvalPred(p, renv)
			if err != nil {
				return false, err
			}
			if tr != sqltypes.True {
				return false, nil
			}
		}
		return true, nil
	})
}

// indexBind performs an index (nested-loop) join: for each tuple, probe the
// base table's hash index, then filter the step's remaining predicates.
func (ex *Exec) indexBind(st *planStep, tuples []*Env) ([]*Env, error) {
	q, tbl, col := st.q, st.tbl, st.indexCol
	out, err := parallelFlatMap(ex, tuples, rowMorsel, func(t *Env) ([]*Env, error) {
		v, err := ex.EvalExpr(st.probe, t)
		if err != nil {
			return nil, err
		}
		ids, ok := tbl.Lookup(col, v)
		if !ok {
			return nil, fmt.Errorf("exec: index on %s.%d vanished mid-plan", tbl.Def.Name, col)
		}
		bump(&ex.Stats.IndexLookups, 1)
		var matched []*Env
		for _, id := range ids {
			renv := Bind(t, q, tbl.Rows[id])
			keep := true
			for _, p := range st.local {
				tr, err := ex.EvalPred(p, renv)
				if err != nil {
					return nil, err
				}
				if tr != sqltypes.True {
					keep = false
					break
				}
			}
			if keep {
				matched = append(matched, renv)
			}
		}
		return matched, nil
	})
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsJoined, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	ex.recordProfile(q.Input, len(out), 0)
	return out, nil
}
