package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"decorr/internal/qgm"
	"decorr/internal/storage"
)

// JoinOrder computes the static binding order of all quantifiers of a
// select box. ForEach quantifiers are ordered greedily by estimated growth
// (selective scans first, connected joins before cross products); scalar
// and existential quantifiers are then placed at the position of minimum
// estimated intermediate cardinality among positions where their
// dependencies are satisfied.
//
// This placement rule reproduces the optimizer behavior the paper reports:
// Query 1's subquery runs after the outer joins (they shrink the
// intermediate result below the number of qualifying parts), while Query
// 2's subquery runs right after the Parts scan, before the join with
// Lineitem inflates the tuple count (§5.3). Magic decorrelation reuses this
// same order to split off the supplementary table (§7).
func (ex *Exec) JoinOrder(b *qgm.Box) []*qgm.Quantifier {
	return ex.planOf(b, nil).order
}

// boxPlan is the compiled physical plan of one select box: the join order
// and, for each quantifier in it, how it binds and which predicates apply
// where. None of it depends on the outer binding, so a correlated box
// re-entered once per outer tuple reuses one boxPlan for the whole Run.
// The row evaluator, the columnar evaluator, the cost model and scan
// streaming all walk these steps; none of them re-derives a placement. A
// boxPlan is read-only once built.
type boxPlan struct {
	order []*qgm.Quantifier
	// pre holds the predicates applicable before any quantifier binds
	// (constants and outer references only).
	pre   []qgm.Expr
	steps []planStep
	// preds is the planning view of the box's predicates, for growth
	// estimates.
	preds []selPred
	// err is a predicate the executor cannot place (one tying two
	// subquery quantifiers); evaluating the box returns it.
	err error
}

// access is how one quantifier joins the tuple stream.
type access uint8

const (
	accScan    access = iota // scan or materialize the input, cross product
	accHash                  // scan or materialize the input, hash join
	accIndex                 // probe the base table's hash index per tuple
	accLateral               // derived table re-evaluated per tuple
	accScalar                // scalar subquery
	accQuant                 // existential or universal subquery
)

// planStep binds one quantifier.
type planStep struct {
	q      *qgm.Quantifier
	access access
	// siblings are the box's row-contributing quantifiers that q's input
	// references; when there are any, the input re-evaluates per tuple.
	siblings map[*qgm.Quantifier]bool
	// tbl is the stored table of a base-table input (nil for a derived
	// input or a table without storage).
	tbl *storage.Table
	// local filters: on accScan/accHash, the predicates over q alone (plus
	// outer bindings), applied to q's input before the join; on accIndex,
	// every other predicate applicable once q binds, tested per probed row.
	local []qgm.Expr
	// accIndex: the probed column and the probe expression over the bound
	// quantifiers and outer bindings.
	indexCol int
	probe    qgm.Expr
	// accHash: the equi-join keys, q's side and the bound side.
	buildKeys, probeKeys []qgm.Expr
	// accQuant: the tie predicates. tieHash marks the hash filter: every
	// tie is an equality split into tieProbe (bound side) and tieSub
	// (subquery side), and the quantifier kind allows it.
	ties             []qgm.Expr
	tieHash          bool
	tieProbe, tieSub []qgm.Expr
	// after holds the predicates that become applicable once q is bound.
	after []qgm.Expr
	// growth is the estimated per-tuple growth of an accScan, accHash or
	// accIndex step given the quantifiers bound before it.
	growth float64
}

// correlated reports whether q's input re-evaluates per tuple (nested
// iteration over the sibling bindings).
func (st *planStep) correlated() bool { return len(st.siblings) > 0 }

// selPred is the planning view of one conjunct.
type selPred struct {
	expr qgm.Expr
	deps map[*qgm.Quantifier]bool // b's own non-subquery quantifiers referenced
	sub  *qgm.Quantifier          // subquery quantifier tied by this predicate, if any
}

// planKey identifies a compiled plan: the box, and the positions of the
// predicates left out (empty for the box's own evaluation; the batched
// single-execution path strips its correlated equalities).
type planKey struct {
	b    *qgm.Box
	skip string
}

// planOf returns b's compiled plan without the predicates in skip. During
// a Run (and an EstimateCost) each plan is built once and shared by every
// evaluation; analyze creates the memo before any fan-out. An Exec that
// never ran analyze — the orderer the rewrites consult while they mutate
// the graph — has no memo and plans afresh on every call.
func (ex *Exec) planOf(b *qgm.Box, skip map[qgm.Expr]bool) *boxPlan {
	key := planKey{b: b}
	if len(skip) > 0 {
		var buf []byte
		for i, p := range b.Preds {
			if skip[p] {
				buf = binary.AppendUvarint(buf, uint64(i))
			}
		}
		key.skip = string(buf)
	}
	ex.estMu.Lock()
	memo := ex.plans
	bp := memo[key]
	ex.estMu.Unlock()
	if bp != nil {
		return bp
	}
	bp = ex.buildPlan(b, skip)
	if memo != nil {
		// Workers racing on a miss build identical plans (the estimates
		// they read were primed by analyze); the first store wins.
		ex.estMu.Lock()
		if prior := memo[key]; prior != nil {
			bp = prior
		} else {
			memo[key] = bp
		}
		ex.estMu.Unlock()
	}
	return bp
}

// buildPlan compiles b's plan. The join order always reads every
// predicate (see JoinOrder for the rule); the skipped predicates are then
// left out of the placement, so they drive no index probe or hash join.
func (ex *Exec) buildPlan(b *qgm.Box, skip map[qgm.Expr]bool) *boxPlan {
	own := make(map[*qgm.Quantifier]bool, len(b.Quants))
	for _, q := range b.Quants {
		own[q] = true
	}
	all := make([]selPred, 0, len(b.Preds))
	var multiSub []qgm.Expr
	for _, p := range b.Preds {
		pi := selPred{expr: p, deps: map[*qgm.Quantifier]bool{}}
		for q := range qgm.QuantSet(p) {
			if !own[q] {
				continue
			}
			if q.Kind.IsSubquery() {
				if pi.sub != nil && pi.sub != q {
					multiSub = append(multiSub, p)
				}
				pi.sub = q
			} else {
				pi.deps[q] = true
			}
		}
		all = append(all, pi)
	}
	bp := &boxPlan{preds: all}
	for _, p := range multiSub {
		if !skip[p] {
			bp.err = fmt.Errorf("exec: predicate references two subquery quantifiers")
		}
	}
	// Sibling dependencies of each quantifier's input.
	lateral := make(map[*qgm.Quantifier]map[*qgm.Quantifier]bool, len(b.Quants))
	for _, q := range b.Quants {
		lateral[q] = ownDeps(q, own)
	}
	bp.order = ex.orderQuants(b, all, lateral)

	preds := all
	if len(skip) > 0 {
		preds = make([]selPred, 0, len(all))
		for _, pi := range all {
			if !skip[pi.expr] {
				preds = append(preds, pi)
			}
		}
		bp.preds = preds
	}
	// Place every predicate, walking the order the way the evaluators do.
	pl := &placement{preds: preds, applied: make([]bool, len(preds)), bound: map[*qgm.Quantifier]bool{}}
	ready := func(pi *selPred) bool { return depsSubset(pi.deps, pl.bound, nil) }
	bp.pre = pl.take(ready)
	for _, q := range bp.order {
		st := planStep{q: q, siblings: lateral[q]}
		switch {
		case q.Kind == qgm.QScalar:
			st.access = accScalar
		case q.Kind.IsSubquery():
			st.access = accQuant
			for i := range preds {
				if preds[i].sub == q {
					pl.applied[i] = true
					st.ties = append(st.ties, preds[i].expr)
				}
			}
			probe, sub, ok := splitTies(st.ties, q)
			if ok && (q.Kind == qgm.QExists || q.Kind == qgm.QNotExists || q.Kind == qgm.QAny) {
				st.tieHash, st.tieProbe, st.tieSub = true, probe, sub
			}
		case st.correlated():
			st.access = accLateral
		default:
			st.growth = ex.estQuantGrowth(q, pl.bound, preds)
			ex.placeForEach(&st, pl)
		}
		pl.bound[q] = true
		st.after = pl.take(ready)
		bp.steps = append(bp.steps, st)
	}
	for i := range preds {
		if !pl.applied[i] && bp.err == nil {
			bp.err = fmt.Errorf("exec: predicate %s left unapplied in box %d", qgm.FormatExpr(preds[i].expr), b.ID)
		}
	}
	return bp
}

// placement is the predicate bookkeeping of a plan being built: which
// predicates are placed, and which quantifiers are bound so far.
type placement struct {
	preds   []selPred
	applied []bool
	bound   map[*qgm.Quantifier]bool
}

// take places and returns, in declared order, every unplaced predicate
// without a subquery tie that match accepts.
func (pl *placement) take(match func(*selPred) bool) []qgm.Expr {
	var out []qgm.Expr
	for i := range pl.preds {
		if !pl.applied[i] && pl.preds[i].sub == nil && match(&pl.preds[i]) {
			pl.applied[i] = true
			out = append(out, pl.preds[i].expr)
		}
	}
	return out
}

// placeForEach chooses a ForEach quantifier's access path: an index probe
// when an equality predicate meets a hash index on a base-table column and
// its other side is computable from the bound set; otherwise its local
// predicates filter the input, and the equalities connecting it to the
// bound set become hash-join keys (a cross product when there are none).
func (ex *Exec) placeForEach(st *planStep, pl *placement) {
	q := st.q
	joinable := func(pi *selPred) bool { return pi.deps[q] && depsSubset(pi.deps, pl.bound, q) }
	if q.Input.Kind == qgm.BoxBase {
		st.tbl = ex.db.Table(q.Input.Table.Name)
	}
	if st.tbl != nil {
		for i := range pl.preds {
			pi := &pl.preds[i]
			if pl.applied[i] || pi.sub != nil || !joinable(pi) {
				continue
			}
			if col, probe, ok := indexEqui(pi.expr, q, st.tbl); ok {
				pl.applied[i] = true
				st.access, st.indexCol, st.probe = accIndex, col, probe
				st.local = pl.take(joinable)
				return
			}
		}
	}
	st.local = pl.take(func(pi *selPred) bool { return len(pi.deps) == 1 && pi.deps[q] })
	st.access = accScan
	for i := range pl.preds {
		pi := &pl.preds[i]
		if pl.applied[i] || pi.sub != nil || !joinable(pi) {
			continue
		}
		if qs, bs, ok := splitEqui(pi.expr, q, pl.bound); ok {
			pl.applied[i] = true
			st.access = accHash
			st.buildKeys = append(st.buildKeys, qs)
			st.probeKeys = append(st.probeKeys, bs)
		}
	}
}

// indexEqui matches p as q.col = <expr not over q> where tbl has an index
// on col.
func indexEqui(p qgm.Expr, q *qgm.Quantifier, tbl *storage.Table) (int, qgm.Expr, bool) {
	bin, ok := p.(*qgm.Bin)
	if !ok || bin.Op != qgm.OpEq {
		return 0, nil, false
	}
	for _, try := range [][2]qgm.Expr{{bin.L, bin.R}, {bin.R, bin.L}} {
		ref, ok := try[0].(*qgm.ColRef)
		if ok && ref.Q == q && !qgm.RefsQuant(try[1], q) && tbl.HasIndex(ref.Col) {
			return ref.Col, try[1], true
		}
	}
	return 0, nil, false
}

// orderQuants computes the join order (see JoinOrder).
func (ex *Exec) orderQuants(b *qgm.Box, preds []selPred, lateral map[*qgm.Quantifier]map[*qgm.Quantifier]bool) []*qgm.Quantifier {
	// Lateral dependencies of row-contributing quantifiers, and full
	// dependencies of late quantifiers.
	deps := map[*qgm.Quantifier]map[*qgm.Quantifier]bool{}
	for _, q := range b.Quants {
		d := map[*qgm.Quantifier]bool{}
		for x := range lateral[q] {
			d[x] = true
		}
		if q.Kind.IsSubquery() {
			for _, pi := range preds {
				if pi.sub == q {
					for x := range pi.deps {
						d[x] = true
					}
				}
			}
		}
		deps[q] = d
	}

	var fquants, late []*qgm.Quantifier
	for _, q := range b.Quants {
		// Correlated scalar subqueries are "late" (they do not grow the
		// intermediate result); lateral ForEach quantifiers join rows and
		// participate in the greedy order with a dependency constraint.
		if q.Kind == qgm.QForEach {
			fquants = append(fquants, q)
		} else {
			late = append(late, q)
		}
	}

	// Greedy order over ForEach quantifiers with dependency constraints,
	// recording the estimated cardinality after each step.
	bound := map[*qgm.Quantifier]bool{}
	var order []*qgm.Quantifier
	card := []float64{1}
	cur := 1.0
	remaining := append([]*qgm.Quantifier(nil), fquants...)
	for len(remaining) > 0 {
		best, bestScore := -1, math.Inf(1)
		for i, q := range remaining {
			ok := true
			for d := range deps[q] {
				if !bound[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			score := ex.estQuantGrowth(q, bound, preds)
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			// Dependency cycle among lateral quantifiers; fall back to
			// declared order to avoid losing quantifiers entirely.
			best = 0
		}
		q := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		order = append(order, q)
		bound[q] = true
		cur *= bestScoreOr(bestScore, 1)
		cur = math.Max(cur, 1)
		card = append(card, cur)
	}

	// Place each late quantifier at the cheapest legal position.
	type insertion struct {
		q   *qgm.Quantifier
		pos int
	}
	var ins []insertion
	for _, q := range late {
		earliest := 0
		for d := range deps[q] {
			for i, oq := range order {
				if oq == d && i+1 > earliest {
					earliest = i + 1
				}
			}
		}
		bestPos, bestCard := earliest, math.Inf(1)
		for p := earliest; p < len(card); p++ {
			if card[p] < bestCard {
				bestPos, bestCard = p, card[p]
			}
		}
		ins = append(ins, insertion{q: q, pos: bestPos})
	}
	// Build the final interleaving: after binding order[:p], insert all
	// late quantifiers with pos == p (declared order).
	var out []*qgm.Quantifier
	for p := 0; p <= len(order); p++ {
		for _, in := range ins {
			if in.pos == p {
				out = append(out, in.q)
			}
		}
		if p < len(order) {
			out = append(out, order[p])
		}
	}
	return out
}

func bestScoreOr(v, def float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return def
	}
	return v
}

// ownDeps returns the row-contributing quantifiers of the same box that
// q's input subtree references (lateral/scalar correlation to siblings).
func ownDeps(q *qgm.Quantifier, own map[*qgm.Quantifier]bool) map[*qgm.Quantifier]bool {
	deps := map[*qgm.Quantifier]bool{}
	for _, r := range qgm.FreeRefs(q.Input) {
		if own[r.Q] && !r.Q.Kind.IsSubquery() {
			deps[r.Q] = true
		}
	}
	return deps
}

// depsSubset reports whether deps ⊆ bound ∪ {q}.
func depsSubset(deps, bound map[*qgm.Quantifier]bool, q *qgm.Quantifier) bool {
	for d := range deps {
		if d != q && !bound[d] {
			return false
		}
	}
	return true
}

// splitEqui decomposes p as qSideExpr = boundSideExpr where the q side
// references q (and possibly outer quantifiers) and the bound side only
// bound/outer quantifiers.
func splitEqui(p qgm.Expr, q *qgm.Quantifier, bound map[*qgm.Quantifier]bool) (qSide, boundSide qgm.Expr, ok bool) {
	bin, isBin := p.(*qgm.Bin)
	if !isBin || bin.Op != qgm.OpEq {
		return nil, nil, false
	}
	sideOK := func(e qgm.Expr, wantQ bool) bool {
		hasQ := false
		for qq := range qgm.QuantSet(e) {
			if qq == q {
				hasQ = true
			} else if qq.Owner == q.Owner && !bound[qq] {
				return false
			}
		}
		return hasQ == wantQ
	}
	if sideOK(bin.L, true) && sideOK(bin.R, false) {
		return bin.L, bin.R, true
	}
	if sideOK(bin.R, true) && sideOK(bin.L, false) {
		return bin.R, bin.L, true
	}
	return nil, nil, false
}

// splitTies decomposes tie predicates into (probe, subquery-side) equality
// expression pairs; ok=false when any tie is not such an equality (then the
// slow path runs). A bare EXISTS has zero ties and is trivially hashable.
func splitTies(ties []qgm.Expr, q *qgm.Quantifier) (probe, sub []qgm.Expr, ok bool) {
	for _, p := range ties {
		bin, isBin := p.(*qgm.Bin)
		if !isBin || bin.Op != qgm.OpEq {
			return nil, nil, false
		}
		lq, rq := qgm.RefsQuant(bin.L, q), qgm.RefsQuant(bin.R, q)
		switch {
		case rq && !lq:
			probe = append(probe, bin.L)
			sub = append(sub, bin.R)
		case lq && !rq:
			probe = append(probe, bin.R)
			sub = append(sub, bin.L)
		default:
			return nil, nil, false
		}
	}
	return probe, sub, true
}
