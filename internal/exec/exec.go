package exec

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decorr/internal/colvec"
	"decorr/internal/faultinject"
	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/trace"
)

// Options select executor policies that the paper treats as system knobs.
type Options struct {
	// MaterializeCSE caches the result of shared, uncorrelated boxes
	// instead of recomputing them per reference. The Starburst prototype
	// in the paper "always recomputes common sub-expressions" (§5.1);
	// the default therefore is false, and the ablation benchmark flips it.
	MaterializeCSE bool
	// MemoizeCorrelated caches correlated subquery results per binding —
	// the NI-with-memo variant used as an extra baseline.
	MemoizeCorrelated bool
	// BatchCorrelated evaluates correlated subqueries set-at-a-time — the
	// NIBatch strategy. Where nested iteration would re-evaluate one
	// correlated subtree per outer tuple, the executor collects the
	// distinct correlation bindings of the whole outer stream and runs the
	// subtree once per distinct binding — or, when the correlation is
	// root-level equalities only, exactly once as a decorrelated
	// partition/probe (see batch_subquery.go). Rows, ordering, Stats
	// determinism, and typed errors match NI at every worker count.
	BatchCorrelated bool
	// Workers bounds intra-query parallelism: the number of goroutines
	// (including the caller) the morsel scheduler may use for one Run.
	// Zero or negative selects runtime.GOMAXPROCS(0); one forces the
	// classic single-threaded volcano behavior. Result rows are
	// bit-identical and identically ordered at every setting — only wall
	// clock (and the scheduling-sensitive CSERecomputes counter) changes.
	// See docs/parallel-execution.md.
	Workers int
	// Tracer, when non-nil, receives one span per box evaluation with the
	// box identity, produced rows, and wall time. The nil case is a single
	// pointer check on the hot path (no timing, no allocations).
	Tracer *trace.Tracer
	// Params supplies values for `?` placeholders, indexed by position.
	// Evaluating a qgm.Param outside the supplied range is an error.
	Params []sqltypes.Value
	// Ctx, when non-nil, cancels execution: Run polls it at every morsel
	// claim and box evaluation and returns ErrCanceled (or
	// ErrDeadlineExceeded for a context deadline). A nil Ctx — and a
	// context that can never be canceled — costs nothing on the hot path.
	Ctx context.Context
	// Limits are the per-Run resource budgets (deadline, output rows,
	// intermediate rows, tracked bytes). The zero value imposes none.
	Limits Limits
	// DisableColumnar forces the row-at-a-time interpreter even for plans
	// the vectorized engine could run. Rows, Stats, and errors are
	// identical either way (the differ cross-checks the two paths); the
	// knob exists for benchmarking and for bisecting a suspected
	// vectorization bug. The DECORR_ROWMODE environment variable (any
	// non-empty value) forces it process-wide.
	DisableColumnar bool
}

// Exec evaluates QGM graphs against a database. An Exec is single-use per
// Run for statistics purposes but may be reused; counters accumulate.
// One Run fans out internally across Options.Workers goroutines, but Run
// itself must not be called concurrently on the same Exec.
type Exec struct {
	db    *storage.DB
	opts  Options
	Stats Stats

	workers int
	sem     chan struct{} // worker tokens shared by nested parallel regions

	// gov enforces Options.Ctx and Options.Limits for the current Run; nil
	// when neither is armed. It is rebuilt at each Run entry (the Timeout
	// deadline anchors there) and read-only during the fan-out.
	gov *governor

	// mu guards the cross-worker memo state (cse, memo, bindings) and the
	// profile map. freeRefs and refCount are written only by analyze
	// (before any fan-out) and read-only afterwards; est and costMemo have
	// their own lock (estMu) because they are read from the scheduling
	// hot path.
	mu sync.Mutex

	freeRefs map[*qgm.Box][]qgm.RefKey
	refCount map[*qgm.Box]int
	// volatileBox marks boxes whose subtree reads a synthetic (sys.*) or
	// storageless relation; their results are never shared across
	// bindings. Written only by analyze (before any fan-out) and
	// read-only afterwards, like freeRefs.
	volatileBox map[*qgm.Box]bool
	cse         map[*qgm.Box][]storage.Row
	cseVecs     map[*qgm.Box]*cseVecEntry
	memo        map[*qgm.Box]map[string]*memoEntry
	bindings    map[*qgm.Box]map[string]bool

	estMu    sync.Mutex
	est      map[*qgm.Box]float64
	costMemo map[*qgm.Box]float64
	// plans memoizes each select box's static plan for one Run (or one
	// EstimateCost); analyze replaces it, and it stays nil on an Exec
	// that never ran analyze (see planOf).
	plans map[planKey]*boxPlan

	profile map[*qgm.Box]*BoxProfile

	// colOK enables the vectorized engine; colSel/colGrp mark the boxes it
	// may evaluate. Both maps are written only by analyze (before any
	// fan-out) and read-only afterwards, like freeRefs.
	colOK  bool
	colSel map[*qgm.Box]bool
	colGrp map[*qgm.Box]bool
}

// idSel caches one shared identity selection vector (0,1,2,...) for the
// whole process: every fresh scan batch and join output starts fully
// live, and the prefix slices handed out are read-only by the colBatch
// immutability contract. Package-level so short queries don't refill it
// every Run; atomic swap keeps readers lock-free once grown.
var idSel atomic.Pointer[[]int32]

// identity returns a shared read-only [0,1,...,n-1] selection vector.
func (ex *Exec) identity(n int) []int32 {
	for {
		cur := idSel.Load()
		if cur != nil && len(*cur) >= n {
			return (*cur)[:n]
		}
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(i)
		}
		if idSel.CompareAndSwap(cur, &s) {
			return s[:n]
		}
	}
}

// colEnabled reports whether this Run may take columnar paths. Profiled
// runs (EXPLAIN ANALYZE) stay on the row path: per-box timings are the
// row interpreter's observability contract.
func (ex *Exec) colEnabled() bool {
	return ex.colOK && ex.profile == nil
}

// New creates an executor over db.
func New(db *storage.DB, opts Options) *Exec {
	w := resolveWorkers(opts.Workers)
	if opts.Tracer != nil {
		// Span trees are part of the observability contract: the golden
		// trace tests (and anyone reading a trace) expect parent/child
		// nesting to mirror the plan. The tracer's LIFO depth tracking
		// cannot express interleaved concurrent box spans, so attaching a
		// tracer serializes execution. Profiling and metrics do not.
		w = 1
	}
	return &Exec{
		db:          db,
		opts:        opts,
		workers:     w,
		sem:         make(chan struct{}, w-1),
		freeRefs:    map[*qgm.Box][]qgm.RefKey{},
		refCount:    map[*qgm.Box]int{},
		volatileBox: map[*qgm.Box]bool{},
		cse:         map[*qgm.Box][]storage.Row{},
		cseVecs:     map[*qgm.Box]*cseVecEntry{},
		memo:        map[*qgm.Box]map[string]*memoEntry{},
		bindings:    map[*qgm.Box]map[string]bool{},
		est:         map[*qgm.Box]float64{},
		colOK:       !opts.DisableColumnar && os.Getenv("DECORR_ROWMODE") == "",
		colSel:      map[*qgm.Box]bool{},
		colGrp:      map[*qgm.Box]bool{},
	}
}

func statsDelta(before, after Stats) Stats {
	return Stats{
		SubqueryInvocations: after.SubqueryInvocations - before.SubqueryInvocations,
		DistinctInvocations: after.DistinctInvocations - before.DistinctInvocations,
		MemoHits:            after.MemoHits - before.MemoHits,
		BatchedSubqueries:   after.BatchedSubqueries - before.BatchedSubqueries,
		BatchExecutions:     after.BatchExecutions - before.BatchExecutions,
		BoxEvals:            after.BoxEvals - before.BoxEvals,
		RowsScanned:         after.RowsScanned - before.RowsScanned,
		IndexLookups:        after.IndexLookups - before.IndexLookups,
		RowsJoined:          after.RowsJoined - before.RowsJoined,
		RowsGrouped:         after.RowsGrouped - before.RowsGrouped,
		HashBuilds:          after.HashBuilds - before.HashBuilds,
		CSERecomputes:       after.CSERecomputes - before.CSERecomputes,
	}
}

// publishStats folds one Run's counters into the process-wide registry —
// once per Run, so the per-row paths stay registry-free.
func publishStats(d Stats) {
	trace.Metrics.Counter("exec.runs").Inc()
	trace.Metrics.Counter("exec.subquery_invocations").Add(d.SubqueryInvocations)
	trace.Metrics.Counter("exec.box_evals").Add(d.BoxEvals)
	trace.Metrics.Counter("exec.rows_scanned").Add(d.RowsScanned)
	trace.Metrics.Counter("exec.index_lookups").Add(d.IndexLookups)
	trace.Metrics.Counter("exec.rows_joined").Add(d.RowsJoined)
	trace.Metrics.Counter("exec.rows_grouped").Add(d.RowsGrouped)
	trace.Metrics.Counter("exec.hash_builds").Add(d.HashBuilds)
	trace.Metrics.Counter("exec.cse_recomputes").Add(d.CSERecomputes)
	trace.Metrics.Counter("exec.memo_hits").Add(d.MemoHits)
	trace.Metrics.Counter("exec.batched_subqueries").Add(d.BatchedSubqueries)
	trace.Metrics.Counter("exec.batch_executions").Add(d.BatchExecutions)
	trace.Metrics.Gauge("exec.last_work").Set(d.Work())
}

// sortRows orders rows by the ORDER BY keys. The sort keys are extracted
// into column vectors up front, so each of the O(n log n) comparisons
// indexes two typed arrays instead of chasing two row pointers and boxing
// both values — and uniformly typed null-free key columns compare without
// entering OrderCompare at all.
func sortRows(rows []storage.Row, keys []qgm.OrderKey) {
	if len(rows) < 2 || len(keys) == 0 {
		return
	}
	cmps := make([]func(a, b int32) int, len(keys))
	for ki, k := range keys {
		v := colvec.FromColumn(rows, k.Col)
		cmps[ki] = orderCmp(v)
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		for ki, k := range keys {
			c := cmps[ki](perm[i], perm[j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]storage.Row, len(rows))
	for i, p := range perm {
		sorted[i] = rows[p]
	}
	copy(rows, sorted)
}

// orderCmp returns a comparator over the key column with OrderCompare
// semantics (NULLs first). Null-free int and string columns take direct
// typed comparisons; floats keep the boxed path (OrderCompare's NaN
// ordering has no cheap typed equivalent).
func orderCmp(v colvec.Vec) func(a, b int32) int {
	if v.Mixed == nil && v.Nulls == nil {
		switch v.K {
		case sqltypes.KindInt:
			xs := v.Ints
			return func(a, b int32) int {
				x, y := xs[a], xs[b]
				switch {
				case x < y:
					return -1
				case x > y:
					return 1
				}
				return 0
			}
		case sqltypes.KindString:
			xs := v.Strs
			return func(a, b int32) int { return strings.Compare(xs[a], xs[b]) }
		}
	}
	return func(a, b int32) int {
		return sqltypes.OrderCompare(v.Value(int(a)), v.Value(int(b)))
	}
}

// analyze precomputes per-box free references, reference counts, and
// cardinality estimates, and starts a fresh static-plan memo. It runs
// single-threaded before any fan-out, so that during execution the
// scheduler workers only ever *read* freeRefs, refCount and (for join
// ordering) the primed est memo — keeping the join order, and with it the
// output row order, identical at every worker count.
func (ex *Exec) analyze(root *qgm.Box) {
	boxes := qgm.Boxes(root)
	for _, b := range boxes {
		if _, ok := ex.freeRefs[b]; !ok {
			ex.freeRefs[b] = dedupRefs(qgm.FreeRefs(b))
		}
	}
	for _, b := range boxes {
		if _, ok := ex.volatileBox[b]; !ok {
			computeVolatile(ex.db, b, ex.volatileBox)
		}
	}
	ex.refCount = map[*qgm.Box]int{}
	for _, b := range boxes {
		for _, q := range b.Quants {
			ex.refCount[q.Input]++
		}
	}
	for _, b := range boxes {
		ex.estBoxRows(b)
	}
	ex.estMu.Lock()
	ex.plans = map[planKey]*boxPlan{}
	ex.estMu.Unlock()
	if ex.colOK {
		for _, b := range boxes {
			switch b.Kind {
			case qgm.BoxSelect:
				if ex.colSelectable(b) {
					ex.colSel[b] = true
				}
			case qgm.BoxGroup:
				if ex.colGroupable(b) {
					ex.colGrp[b] = true
				}
			}
		}
	}
}

func dedupRefs(refs []*qgm.ColRef) []qgm.RefKey {
	seen := map[qgm.RefKey]bool{}
	var out []qgm.RefKey
	for _, r := range refs {
		k := qgm.RefKey{Q: r.Q, Col: r.Col}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q.ID != out[j].Q.ID {
			return out[i].Q.ID < out[j].Q.ID
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// isCorrelated reports whether box b has free references (i.e. needs outer
// bindings to evaluate). Boxes reachable from the Run root are filled in by
// analyze; the lazy path below only runs on the single-threaded estimation
// entry points (EstimateCost and friends).
func (ex *Exec) isCorrelated(b *qgm.Box) bool {
	fr, ok := ex.freeRefs[b]
	if !ok {
		fr = dedupRefs(qgm.FreeRefs(b))
		ex.freeRefs[b] = fr
	}
	return len(fr) > 0
}

// bindingKey evaluates b's free references under env and encodes them.
func (ex *Exec) bindingKey(b *qgm.Box, env *Env) (string, error) {
	fr := ex.freeRefs[b]
	vals := make([]sqltypes.Value, len(fr))
	for i, rk := range fr {
		v, err := ex.EvalExpr(&qgm.ColRef{Q: rk.Q, Col: rk.Col}, env)
		if err != nil {
			return "", err
		}
		vals[i] = v
	}
	return sqltypes.Key(vals), nil
}

// evalSubqueryInput evaluates the input box of a subquery-like quantifier
// for one outer tuple, counting it as a correlated invocation when the box
// is correlated, and applying the NI-memo knob. It is called concurrently
// by scheduler workers fanning out over outer bindings; the bindings set
// and memo cache are mutex-guarded, and the memo is single-flight: the
// first worker to miss a binding evaluates it while later arrivals wait
// for that result and count a memo hit, so each distinct binding is
// evaluated exactly once at every worker count.
func (ex *Exec) evalSubqueryInput(b *qgm.Box, env *Env) ([]storage.Row, error) {
	if !ex.isCorrelated(b) {
		return ex.evalBox(b, env)
	}
	key, err := ex.bindingKey(b, env)
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.SubqueryInvocations, 1)
	ex.mu.Lock()
	seen := ex.bindings[b]
	if seen == nil {
		seen = map[string]bool{}
		ex.bindings[b] = seen
	}
	if !seen[key] {
		seen[key] = true
		bump(&ex.Stats.DistinctInvocations, 1)
	}
	ex.mu.Unlock()
	if ex.opts.MemoizeCorrelated && !ex.subtreeVolatile(b) {
		return ex.memoEval(b, key, env)
	}
	return ex.evalBox(b, env)
}

// memoEntry is one NI-memo cache slot. done closes once rows/err are
// final; until then the slot belongs to the worker evaluating it.
type memoEntry struct {
	done chan struct{}
	rows []storage.Row
	err  error
}

// memoEval serves one correlated invocation through the NI-memo cache.
// Waiting cannot deadlock: the evaluating worker only ever waits on
// bindings of boxes strictly inside b, and nested parallel regions run
// inline when the worker pool is drained.
func (ex *Exec) memoEval(b *qgm.Box, key string, env *Env) (rows []storage.Row, err error) {
	ex.mu.Lock()
	m := ex.memo[b]
	if m == nil {
		m = map[string]*memoEntry{}
		ex.memo[b] = m
	}
	e, hit := m[key]
	if !hit {
		e = &memoEntry{done: make(chan struct{})}
		m[key] = e
	}
	ex.mu.Unlock()
	if hit {
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		bump(&ex.Stats.MemoHits, 1)
		return e.rows, nil
	}
	defer func() {
		// A panic must not strand the waiters with an empty "result": they
		// receive the same *PanicError the scheduler would have made.
		if r := recover(); r != nil {
			e.rows, e.err = nil, &PanicError{Val: r, Stack: debug.Stack()}
			rows, err = nil, e.err
		}
		close(e.done)
	}()
	e.rows, e.err = ex.evalBox(b, env)
	if e.err == nil {
		e.err = ex.govBytes(e.rows)
	}
	if e.err != nil {
		e.rows = nil
	}
	return e.rows, e.err
}

// evalBox evaluates any box under env, applying CSE policy for shared
// uncorrelated boxes.
func (ex *Exec) evalBox(b *qgm.Box, env *Env) ([]storage.Row, error) {
	// Every box evaluation is a cancellation point: nested-iteration plans
	// re-evaluate correlated boxes per outer tuple, so this check alone
	// bounds their trip latency to one subquery invocation.
	if err := ex.gov.checkpoint(); err != nil {
		return nil, err
	}
	bump(&ex.Stats.BoxEvals, 1)
	shared := ex.refCount[b] > 1
	uncorrelated := !ex.isCorrelated(b)
	if uncorrelated && shared {
		ex.mu.Lock()
		rows, ok := ex.cse[b]
		ve := ex.cseVecs[b]
		ex.mu.Unlock()
		if ok || ve != nil {
			if ex.opts.MaterializeCSE {
				if !ok {
					// A fused columnar consumer cached this box's output
					// as vectors; materialize rows once and share them.
					rows, err := ex.colMaterialize(ve.vecs, ve.phys)
					if err != nil {
						return nil, err
					}
					ex.mu.Lock()
					if prior, dup := ex.cse[b]; dup {
						rows = prior
					} else {
						ex.cse[b] = rows
					}
					ex.mu.Unlock()
					return rows, nil
				}
				return rows, nil
			}
			bump(&ex.Stats.CSERecomputes, 1)
		}
	}
	// Timing is gated on a pointer check so that plain execution (no
	// profile, no tracer) pays nothing here.
	var sp *trace.Span
	var start time.Time
	if ex.opts.Tracer != nil {
		sp = ex.opts.Tracer.Begin(boxSpanName(b), "exec",
			trace.Int("box", int64(b.ID)), trace.Str("kind", b.Kind.String()))
	}
	if ex.profile != nil || sp != nil {
		start = time.Now()
	}
	rows, err := ex.dispatch(b, env)
	if err != nil {
		sp.End(trace.Str("error", err.Error()))
		return nil, err
	}
	if ex.profile != nil || sp != nil {
		elapsed := time.Since(start)
		ex.recordProfile(b, len(rows), elapsed)
		sp.End(trace.Int("rows", int64(len(rows))))
	}
	if uncorrelated && shared {
		if err := ex.govBytes(rows); err != nil {
			return nil, err
		}
		ex.mu.Lock()
		if _, ok := ex.cse[b]; !ok {
			ex.cse[b] = rows
		}
		ex.mu.Unlock()
	}
	return rows, nil
}

func (ex *Exec) dispatch(b *qgm.Box, env *Env) ([]storage.Row, error) {
	switch b.Kind {
	case qgm.BoxBase:
		t := ex.db.Table(b.Table.Name)
		if t == nil {
			return nil, fmt.Errorf("exec: table %q has no storage", b.Table.Name)
		}
		rows, err := t.Scan()
		if err != nil {
			return nil, err
		}
		bump(&ex.Stats.RowsScanned, int64(len(rows)))
		if err := ex.govRows(len(rows)); err != nil {
			return nil, err
		}
		return rows, nil
	case qgm.BoxSelect:
		if ex.colEnabled() && ex.colSel[b] {
			return ex.colEvalSelect(b, env)
		}
		return ex.evalSelect(b, env)
	case qgm.BoxGroup:
		if ex.colEnabled() && ex.colGrp[b] {
			return ex.colEvalGroup(b, env)
		}
		return ex.evalGroup(b, env)
	case qgm.BoxUnion:
		return ex.evalUnion(b, env)
	case qgm.BoxLeftJoin:
		return ex.evalLeftJoin(b, env)
	case qgm.BoxIntersect, qgm.BoxExcept:
		return ex.evalSetDiff(b, env)
	}
	return nil, fmt.Errorf("exec: unknown box kind %v", b.Kind)
}

// evalSetDiff evaluates INTERSECT/EXCEPT with SQL multiset semantics:
// INTERSECT ALL keeps min(countL, countR) copies, EXCEPT ALL keeps
// max(0, countL - countR); the DISTINCT variants keep at most one copy of
// each qualifying row. Both inputs evaluate in parallel; the count/emit
// pass is sequential because each decision depends on how many copies
// earlier (left-order) rows already emitted.
func (ex *Exec) evalSetDiff(b *qgm.Box, env *Env) ([]storage.Row, error) {
	ins, err := parallelChunks(ex, 2, 1, func(lo, _ int) ([]storage.Row, error) {
		return ex.evalBox(b.Quants[lo].Input, env)
	})
	if err != nil {
		return nil, err
	}
	left, right := ins[0], ins[1]
	rowKey := func(r storage.Row) (string, error) { return sqltypes.Key(r), nil }
	rKeys, err := parallelMap(ex, right, rowMorsel, rowKey)
	if err != nil {
		return nil, err
	}
	lKeys, err := parallelMap(ex, left, rowMorsel, rowKey)
	if err != nil {
		return nil, err
	}
	rCount := make(map[string]int, len(right))
	for _, k := range rKeys {
		rCount[k]++
	}
	emitted := map[string]int{}
	var out []storage.Row
	for i, l := range left {
		k := lKeys[i]
		n := emitted[k]
		var keep bool
		if b.Kind == qgm.BoxIntersect {
			if b.Distinct {
				keep = n == 0 && rCount[k] > 0
			} else {
				keep = n < rCount[k]
			}
		} else { // BoxExcept
			if b.Distinct {
				keep = n == 0 && rCount[k] == 0
			} else {
				keep = n >= rCount[k]
			}
		}
		emitted[k] = n + 1
		if keep {
			out = append(out, l)
		}
	}
	return out, nil
}

// evalUnion evaluates every branch in parallel and concatenates the
// results in declared branch order, so UNION ALL output — and the
// first-occurrence order dedupeRows preserves for UNION DISTINCT — is the
// same at any worker count.
func (ex *Exec) evalUnion(b *qgm.Box, env *Env) ([]storage.Row, error) {
	branches, err := parallelChunks(ex, len(b.Quants), 1, func(lo, _ int) ([]storage.Row, error) {
		return ex.evalBox(b.Quants[lo].Input, env)
	})
	if err != nil {
		return nil, err
	}
	out := concat(branches)
	if b.Distinct {
		out = dedupeRows(out)
	}
	return out, nil
}

func dedupeRows(rows []storage.Row) []storage.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	var buf []byte
	for _, r := range rows {
		buf = sqltypes.AppendKey(buf[:0], r...)
		if !seen[string(buf)] { // no-alloc map lookup
			seen[string(buf)] = true
			out = append(out, r)
		}
	}
	return out
}

// groupState is one group's accumulation state during evalGroup.
type groupState struct {
	rep  *Env // representative binding for group expressions
	accs []aggAcc
}

func (ex *Exec) evalGroup(b *qgm.Box, env *Env) ([]storage.Row, error) {
	qg := b.Quants[0]
	input, err := ex.evalBox(qg.Input, env)
	if err != nil {
		return nil, err
	}
	aggs, aggIndex := collectAggs(b)
	var groups map[string]*groupState
	var order []string
	if mergeableAggs(aggs) {
		groups, order, err = ex.groupByPartials(b, qg, aggs, input, env)
	} else {
		groups, order, err = ex.groupBySequentialFold(b, qg, aggs, input, env)
	}
	if err != nil {
		return nil, err
	}
	if len(input) == 0 && len(b.GroupBy) == 0 {
		// Ungrouped aggregate over empty input yields exactly one row:
		// COUNT 0, other aggregates NULL. (The rewrites' COUNT-bug
		// handling exists precisely because grouped plans lose this row.)
		gs := &groupState{rep: Bind(env, qg, nullRow(len(qg.Input.Cols))), accs: make([]aggAcc, len(aggs))}
		for i, a := range aggs {
			gs.accs[i] = newAggAcc(a)
		}
		groups[""] = gs
		order = append(order, "")
	}
	return ex.emitGroupRows(b, groups, order, aggs, aggIndex)
}

// groupKeyVals evaluates the grouping key of one input row.
func (ex *Exec) groupKeyVals(b *qgm.Box, renv *Env) (string, error) {
	keyVals := make([]sqltypes.Value, len(b.GroupBy))
	for i, ge := range b.GroupBy {
		v, err := ex.EvalExpr(ge, renv)
		if err != nil {
			return "", err
		}
		keyVals[i] = v
	}
	return sqltypes.Key(keyVals), nil
}

// groupByPartials is the morsel-style aggregation path: each worker folds
// its morsels into private partial groups, and the partials merge in morsel
// order, preserving first-appearance group order. It requires every
// aggregate to merge exactly (see mergeableAggs).
func (ex *Exec) groupByPartials(b *qgm.Box, qg *qgm.Quantifier, aggs []*qgm.Agg, input []storage.Row, env *Env) (map[string]*groupState, []string, error) {
	type partial struct {
		groups map[string]*groupState
		order  []string
	}
	parts, err := parallelChunks(ex, len(input), rowMorsel, func(lo, hi int) (partial, error) {
		p := partial{groups: map[string]*groupState{}}
		for _, row := range input[lo:hi] {
			renv := Bind(env, qg, row)
			k, err := ex.groupKeyVals(b, renv)
			if err != nil {
				return partial{}, err
			}
			gs := p.groups[k]
			if gs == nil {
				gs = &groupState{rep: renv, accs: make([]aggAcc, len(aggs))}
				for i, a := range aggs {
					gs.accs[i] = newAggAcc(a)
				}
				p.groups[k] = gs
				p.order = append(p.order, k)
			}
			for i, a := range aggs {
				var v sqltypes.Value
				if a.Op != qgm.AggCountStar {
					v, err = ex.EvalExpr(a.Arg, renv)
					if err != nil {
						return partial{}, err
					}
				}
				gs.accs[i].add(v)
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, nil, err
	}
	groups := map[string]*groupState{}
	var order []string
	for _, p := range parts {
		for _, k := range p.order {
			pg := p.groups[k]
			gs, ok := groups[k]
			if !ok {
				groups[k] = pg
				order = append(order, k)
				continue
			}
			for i := range gs.accs {
				gs.accs[i].merge(pg.accs[i])
			}
		}
	}
	return groups, order, nil
}

// groupBySequentialFold parallelizes only the per-row expression work (key
// and aggregate arguments) and folds the accumulators sequentially in input
// row order. SUM and AVG take this path: they may accumulate doubles, and
// floating-point addition order changes the last ulp, so merging per-worker
// partials would break the engine's bit-identical-at-any-worker-count
// guarantee (and silently diverge from the differential oracle).
func (ex *Exec) groupBySequentialFold(b *qgm.Box, qg *qgm.Quantifier, aggs []*qgm.Agg, input []storage.Row, env *Env) (map[string]*groupState, []string, error) {
	type rowEval struct {
		key  string
		renv *Env
		args []sqltypes.Value
	}
	evals, err := parallelMap(ex, input, rowMorsel, func(row storage.Row) (rowEval, error) {
		renv := Bind(env, qg, row)
		k, err := ex.groupKeyVals(b, renv)
		if err != nil {
			return rowEval{}, err
		}
		args := make([]sqltypes.Value, len(aggs))
		for i, a := range aggs {
			if a.Op != qgm.AggCountStar {
				v, err := ex.EvalExpr(a.Arg, renv)
				if err != nil {
					return rowEval{}, err
				}
				args[i] = v
			}
		}
		return rowEval{key: k, renv: renv, args: args}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	groups := map[string]*groupState{}
	var order []string
	for _, re := range evals {
		gs := groups[re.key]
		if gs == nil {
			gs = &groupState{rep: re.renv, accs: make([]aggAcc, len(aggs))}
			for i, a := range aggs {
				gs.accs[i] = newAggAcc(a)
			}
			groups[re.key] = gs
			order = append(order, re.key)
		}
		for i := range aggs {
			gs.accs[i].add(re.args[i])
		}
	}
	return groups, order, nil
}

// evalWithAggs evaluates a group-box output expression, substituting
// finished aggregate values for Agg nodes and using the group's
// representative row for grouping-column references.
func (ex *Exec) evalWithAggs(e qgm.Expr, rep *Env, aggs []*qgm.Agg, aggIndex map[*qgm.Agg]int, accs []aggAcc) (sqltypes.Value, error) {
	if a, ok := e.(*qgm.Agg); ok {
		return accs[aggIndex[a]].result(), nil
	}
	switch x := e.(type) {
	case *qgm.Bin:
		if x.Op == qgm.OpAdd || x.Op == qgm.OpSub || x.Op == qgm.OpMul || x.Op == qgm.OpDiv {
			l, err := ex.evalWithAggs(x.L, rep, aggs, aggIndex, accs)
			if err != nil {
				return sqltypes.Null, err
			}
			r, err := ex.evalWithAggs(x.R, rep, aggs, aggIndex, accs)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.Arith(arithOf(x.Op), l, r)
		}
	case *qgm.Func:
		args := make([]sqltypes.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := ex.evalWithAggs(a, rep, aggs, aggIndex, accs)
			if err != nil {
				return sqltypes.Null, err
			}
			args[i] = v
		}
		return applyFunc(x.Name, args)
	}
	return ex.EvalExpr(e, rep)
}

func nullRow(width int) storage.Row {
	r := make(storage.Row, width)
	for i := range r {
		r[i] = sqltypes.Null
	}
	return r
}

func (ex *Exec) evalLeftJoin(b *qgm.Box, env *Env) ([]storage.Row, error) {
	ql, qr := b.Quants[0], b.Quants[1]
	ins, err := parallelChunks(ex, 2, 1, func(lo, _ int) ([]storage.Row, error) {
		return ex.evalBox(b.Quants[lo].Input, env)
	})
	if err != nil {
		return nil, err
	}
	left, right := ins[0], ins[1]
	// Split ON predicates into hashable equalities and residual filters.
	var lKeys, rKeys []qgm.Expr
	var residual []qgm.Expr
	for _, p := range b.Preds {
		if l, r, ok := equiSides(p, ql, qr); ok {
			lKeys = append(lKeys, l)
			rKeys = append(rKeys, r)
		} else {
			residual = append(residual, p)
		}
	}
	nullRight := nullRow(len(qr.Input.Cols))
	var rHash map[string][]int
	if len(lKeys) > 0 {
		if err := ex.hashBuildCheck(right); err != nil {
			return nil, err
		}
		bump(&ex.Stats.HashBuilds, 1)
		// Build: key expressions evaluate in parallel; the table fills
		// sequentially in row order so bucket chains are deterministic.
		type buildKey struct {
			key  string
			skip bool
		}
		keys, err := parallelMap(ex, right, rowMorsel, func(rr storage.Row) (buildKey, error) {
			renv := Bind(env, qr, rr)
			key, null, err := ex.keyFor(rKeys, renv)
			if err != nil {
				return buildKey{}, err
			}
			return buildKey{key: key, skip: null}, nil // NULL join keys never match
		})
		if err != nil {
			return nil, err
		}
		rHash = make(map[string][]int, len(right))
		for i, bk := range keys {
			if !bk.skip {
				rHash[bk.key] = append(rHash[bk.key], i)
			}
		}
	}
	// Probe: each morsel of left rows emits into its own slot; slots
	// concatenate in morsel order, preserving the left-to-right row order
	// of the single-threaded join.
	chunks, err := parallelChunks(ex, len(left), rowMorsel, func(lo, hi int) ([]storage.Row, error) {
		var out []storage.Row
		emit := func(lenv *Env, rrow storage.Row) error {
			full := Bind(lenv, qr, rrow)
			row := make(storage.Row, len(b.Cols))
			for i, c := range b.Cols {
				v, err := ex.EvalExpr(c.Expr, full)
				if err != nil {
					return err
				}
				row[i] = v
			}
			out = append(out, row)
			return nil
		}
		for _, lr := range left[lo:hi] {
			lenv := Bind(env, ql, lr)
			matched := false
			candidates := right
			if rHash != nil {
				keys := make([]sqltypes.Value, len(lKeys))
				nullKey := false
				for ki, ke := range lKeys {
					v, err := ex.EvalExpr(ke, lenv)
					if err != nil {
						return nil, err
					}
					if v.IsNull() {
						nullKey = true
						break
					}
					keys[ki] = v
				}
				if nullKey {
					candidates = nil
				} else {
					ids := rHash[sqltypes.Key(keys)]
					candidates = make([]storage.Row, len(ids))
					for i, id := range ids {
						candidates[i] = right[id]
					}
				}
			}
			for _, rr := range candidates {
				renv := Bind(lenv, qr, rr)
				ok := sqltypes.True
				for _, p := range residual {
					t, err := ex.EvalPred(p, renv)
					if err != nil {
						return nil, err
					}
					ok = ok.And(t)
					if ok != sqltypes.True {
						break
					}
				}
				if ok == sqltypes.True {
					matched = true
					if err := emit(lenv, rr); err != nil {
						return nil, err
					}
				}
			}
			if !matched {
				if err := emit(lenv, nullRight); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := concat(chunks)
	bump(&ex.Stats.RowsJoined, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// hashBuildCheck gates every hash-table build: the fault-injection
// hash-build point fires first, then the build side is charged against the
// byte budget — a hash join's dominant allocation is its build table.
func (ex *Exec) hashBuildCheck(build []storage.Row) error {
	if err := faultinject.Check(faultinject.HashBuild); err != nil {
		return err
	}
	return ex.govBytes(build)
}

// equiSides decomposes p as an equality whose sides reference exactly ql
// and qr respectively (in either order); outer references are allowed on
// both sides.
func equiSides(p qgm.Expr, ql, qr *qgm.Quantifier) (lSide, rSide qgm.Expr, ok bool) {
	b, isBin := p.(*qgm.Bin)
	if !isBin || b.Op != qgm.OpEq {
		return nil, nil, false
	}
	lq, rq := qgm.QuantSet(b.L), qgm.QuantSet(b.R)
	switch {
	case lq[ql] && !lq[qr] && rq[qr] && !rq[ql]:
		return b.L, b.R, true
	case lq[qr] && !lq[ql] && rq[ql] && !rq[qr]:
		return b.R, b.L, true
	}
	return nil, nil, false
}
