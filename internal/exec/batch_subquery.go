package exec

// Runtime subquery batching (the NIBatch strategy). When bindSubqueryCheck
// or a correlated bindScalar would evaluate the same correlated subtree
// once per outer tuple — the nested-iteration hot loop — this path first
// collects the distinct correlation bindings of the whole outer stream
// (the synthesized bindings relation of Guravannavar & Sudarshan's
// batched-bindings evaluation), then evaluates the subtree set-at-a-time:
//
//   - Single-execution path: when the correlation enters the subtree only
//     through root-level equalities (qgm.ExtractBatchSignature), the
//     subtree runs ONCE with those predicates stripped, its rows are
//     partitioned by the subquery-side key, and each distinct binding
//     probes its partition — one decorrelated execution instead of one
//     per binding.
//   - Per-binding path: otherwise the subtree runs once per DISTINCT
//     binding (plain nested iteration over the bindings relation), which
//     is always sound — group boxes keep their per-binding COUNT-bug
//     semantics, left joins and nested subqueries evaluate faithfully.
//
// Either way, results fan back to outer tuples in the original stream
// order, so rows, ordering, and typed errors are bit-identical to NI at
// every worker count. Batching declines entirely (ok=false) for profiled
// runs — EXPLAIN ANALYZE's per-box invocation counts are the row
// interpreter's observability contract — and for subtrees over sys.*
// synthetic tables or missing storage, whose row sources may change
// between evaluations (the same volatility rule that gates the NI-memo
// cache in evalSubqueryInput).

import (
	"decorr/internal/qgm"
	"decorr/internal/storage"
)

// batchEligible reports whether the batched evaluation path may serve
// subtree b for this Run.
func (ex *Exec) batchEligible(b *qgm.Box) bool {
	return ex.opts.BatchCorrelated && ex.profile == nil && !ex.subtreeVolatile(b)
}

// batchSubqueryRows evaluates the correlated subtree of plan step st for
// every outer tuple set-at-a-time. It returns per-tuple row sets aligned with
// tuples; ok=false means the path declined and the caller must fall back
// to the per-tuple NI loop.
func (ex *Exec) batchSubqueryRows(st *planStep, tuples []*Env, env *Env) (per [][]storage.Row, ok bool, err error) {
	b := st.q.Input
	if !ex.batchEligible(b) || !ex.isCorrelated(b) {
		return nil, false, nil
	}
	keys, err := parallelMap(ex, tuples, rowMorsel, func(t *Env) (string, error) {
		return ex.bindingKey(b, t)
	})
	if err != nil {
		return nil, true, err
	}
	// The distinct bindings, in first-appearance order — the synthesized
	// bindings relation. First-appearance order keeps the representative
	// tuples (and with them every downstream evaluation) identical at any
	// worker count.
	index := make(map[string]int, len(tuples))
	var reps []*Env
	var keyBytes int64
	for i, k := range keys {
		if _, dup := index[k]; !dup {
			index[k] = len(reps)
			reps = append(reps, tuples[i])
			keyBytes += int64(len(k))
		}
	}
	bump(&ex.Stats.SubqueryInvocations, int64(len(tuples)))
	bump(&ex.Stats.BatchedSubqueries, int64(len(tuples)))
	ex.mu.Lock()
	seen := ex.bindings[b]
	if seen == nil {
		seen = map[string]bool{}
		ex.bindings[b] = seen
	}
	var fresh int64
	for k := range index {
		if !seen[k] {
			seen[k] = true
			fresh++
		}
	}
	ex.mu.Unlock()
	bump(&ex.Stats.DistinctInvocations, fresh)
	// The bindings relation is a tracked materialization like a hash-join
	// build side: charge its key bytes before evaluating anything.
	if err := ex.govAddBytes(keyBytes); err != nil {
		return nil, true, err
	}
	var perRep [][]storage.Row
	// The sibling quantifiers are the ones whose bindings vary across the
	// outer tuple stream; references to quantifiers of ancestor boxes are
	// run-constant here (env binds them once).
	if sig, sok := qgm.ExtractBatchSignature(b, st.siblings); sok {
		perRep, err = ex.batchSingleExec(b, sig, reps, env)
	} else {
		// Per-distinct-binding fallback: plain nested iteration over the
		// bindings relation, fanned out like the NI hot loop.
		perRep, err = parallelMap(ex, reps, subqMorsel, func(rep *Env) ([]storage.Row, error) {
			rows, rerr := ex.evalBox(b, rep)
			if rerr != nil {
				return nil, rerr
			}
			if rerr := ex.govBytes(rows); rerr != nil {
				return nil, rerr
			}
			return rows, nil
		})
		bump(&ex.Stats.BatchExecutions, int64(len(reps)))
	}
	if err != nil {
		return nil, true, err
	}
	per = make([][]storage.Row, len(tuples))
	for i, k := range keys {
		per[i] = perRep[index[k]]
	}
	return per, true, nil
}

// batchSingleExec is the single-execution path: run subtree b once under
// the run-constant env with the signature's correlated predicates
// stripped, key and project every phase-1 tuple, partition the projected
// rows, and probe one partition per distinct binding. The partition build
// is the moral equivalent of a hash-join build side and goes through the
// same fault-injection and byte-budget gate.
func (ex *Exec) batchSingleExec(b *qgm.Box, sig *qgm.BatchSignature, reps []*Env, env *Env) ([][]storage.Row, error) {
	// This bypasses evalBox for the root (the stripped predicate set is
	// not the box's own evaluation), so it carries evalBox's governance
	// checkpoint and box accounting itself.
	if err := ex.gov.checkpoint(); err != nil {
		return nil, err
	}
	bump(&ex.Stats.BoxEvals, 1)
	bump(&ex.Stats.BatchExecutions, 1)
	tuples, err := ex.selectTuplesSkip(b, env, sig.Skip)
	if err != nil {
		return nil, err
	}
	type keyedRow struct {
		key  string
		skip bool
		row  storage.Row
	}
	outs, err := parallelMap(ex, tuples, rowMorsel, func(t *Env) (keyedRow, error) {
		key, null, kerr := ex.keyFor(sig.Inner, t)
		if kerr != nil {
			return keyedRow{}, kerr
		}
		if null {
			// A NULL key component can never satisfy the stripped
			// equality: the row belongs to no binding's result.
			return keyedRow{skip: true}, nil
		}
		row := make(storage.Row, len(b.Cols))
		for i, c := range b.Cols {
			v, verr := ex.EvalExpr(c.Expr, t)
			if verr != nil {
				return keyedRow{}, verr
			}
			row[i] = v
		}
		return keyedRow{key: key, row: row}, nil
	})
	if err != nil {
		return nil, err
	}
	built := make([]storage.Row, 0, len(outs))
	for _, kr := range outs {
		if !kr.skip {
			built = append(built, kr.row)
		}
	}
	if err := ex.hashBuildCheck(built); err != nil {
		return nil, err
	}
	bump(&ex.Stats.HashBuilds, 1)
	// Partitions fill sequentially in tuple order, so each binding's rows
	// come back in the exact order the per-binding NI evaluation would
	// have produced them.
	parts := make(map[string][]storage.Row, len(built))
	for _, kr := range outs {
		if !kr.skip {
			parts[kr.key] = append(parts[kr.key], kr.row)
		}
	}
	return parallelMap(ex, reps, rowMorsel, func(rep *Env) ([]storage.Row, error) {
		key, null, kerr := ex.keyFor(sig.Outer, rep)
		if kerr != nil {
			return nil, kerr
		}
		if null {
			// NULL probe keys match nothing, same as the stripped
			// predicate evaluating UNKNOWN for every subtree row.
			return nil, nil
		}
		return parts[key], nil
	})
}

// subtreeVolatile reports whether subtree b reads any relation whose
// contents may differ between evaluations within one Run: sys.* synthetic
// tables (RowSource-backed views of live engine state) or tables with no
// storage at all. Such subtrees must not have results shared across
// bindings (batching) or across invocations (the NI-memo cache). Boxes
// reachable from the Run root are precomputed by analyze; the lazy path
// only runs on estimation entry points.
func (ex *Exec) subtreeVolatile(b *qgm.Box) bool {
	if v, ok := ex.volatileBox[b]; ok {
		return v
	}
	v := computeVolatile(ex.db, b, nil)
	ex.volatileBox[b] = v
	return v
}

// computeVolatile walks b's subtree looking for volatile leaves, memoizing
// into memo when non-nil.
func computeVolatile(db *storage.DB, b *qgm.Box, memo map[*qgm.Box]bool) bool {
	if memo != nil {
		if v, ok := memo[b]; ok {
			return v
		}
		memo[b] = false // DAG guard; final value stored below
	}
	v := false
	if b.Kind == qgm.BoxBase {
		t := db.Table(b.Table.Name)
		v = t == nil || t.Synthetic()
	}
	for _, q := range b.Quants {
		if computeVolatile(db, q.Input, memo) {
			v = true
		}
	}
	if memo != nil {
		memo[b] = v
	}
	return v
}
