package exec

import (
	"math"

	"decorr/internal/qgm"
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
	return ex.planOf(b).order
}

// boxPlan is the static plan of one select box: the join order plus the
// predicate and dependency bookkeeping every evaluation of the box starts
// from. None of it depends on the outer binding, so a correlated box
// re-entered once per outer tuple reuses one boxPlan for the whole Run.
// A boxPlan is read-only once built.
type boxPlan struct {
	order []*qgm.Quantifier
	// preds holds one bookkeeping template per predicate (applied unset);
	// freshPreds hands each evaluation its own copies.
	preds []selPred
	// lateral maps each quantifier to the sibling row-contributing
	// quantifiers its input references (ownDeps).
	lateral map[*qgm.Quantifier]map[*qgm.Quantifier]bool
	// multiSub lists predicates tying two subquery quantifiers at once,
	// which the executor cannot place.
	multiSub []qgm.Expr
}

// freshPreds returns per-evaluation copies of the predicate templates,
// leaving out the skipped ones.
func (bp *boxPlan) freshPreds(skip map[qgm.Expr]bool) []*selPred {
	buf := make([]selPred, 0, len(bp.preds))
	out := make([]*selPred, 0, len(bp.preds))
	for _, pi := range bp.preds {
		if skip[pi.expr] {
			continue
		}
		buf = append(buf, pi)
		out = append(out, &buf[len(buf)-1])
	}
	return out
}

// planOf returns b's static plan. During a Run (and an EstimateCost) the
// plan is built once per box and shared by every evaluation; analyze
// creates the memo before any fan-out. An Exec that never ran analyze —
// the orderer the rewrites consult while they mutate the graph — has no
// memo and plans afresh on every call.
func (ex *Exec) planOf(b *qgm.Box) *boxPlan {
	ex.estMu.Lock()
	memo := ex.plans
	bp := memo[b]
	ex.estMu.Unlock()
	if bp != nil {
		return bp
	}
	bp = ex.buildPlan(b)
	if memo != nil {
		// Workers racing on a miss build identical plans (the estimates
		// they read were primed by analyze); the first store wins.
		ex.estMu.Lock()
		if prior := memo[b]; prior != nil {
			bp = prior
		} else {
			memo[b] = bp
		}
		ex.estMu.Unlock()
	}
	return bp
}

// buildPlan computes b's static plan (see JoinOrder for the ordering rule).
func (ex *Exec) buildPlan(b *qgm.Box) *boxPlan {
	bp := &boxPlan{
		preds:   make([]selPred, 0, len(b.Preds)),
		lateral: make(map[*qgm.Quantifier]map[*qgm.Quantifier]bool, len(b.Quants)),
	}
	own := make(map[*qgm.Quantifier]bool, len(b.Quants))
	for _, q := range b.Quants {
		own[q] = true
	}
	for _, p := range b.Preds {
		pi := selPred{expr: p, deps: map[*qgm.Quantifier]bool{}}
		for q := range qgm.QuantSet(p) {
			if !own[q] {
				continue
			}
			if q.Kind.IsSubquery() {
				if pi.sub != nil && pi.sub != q {
					bp.multiSub = append(bp.multiSub, p)
				}
				pi.sub = q
			} else {
				pi.deps[q] = true
			}
		}
		bp.preds = append(bp.preds, pi)
	}
	// The simulation below marks predicates applied on its own copies.
	preds := bp.freshPreds(nil)
	// Lateral dependencies of row-contributing quantifiers, and full
	// dependencies of late quantifiers.
	deps := map[*qgm.Quantifier]map[*qgm.Quantifier]bool{}
	for _, q := range b.Quants {
		lat := ownDeps(q, own)
		bp.lateral[q] = lat
		d := map[*qgm.Quantifier]bool{}
		for x := range lat {
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
		if q.Kind == qgm.QForEach || q.Kind == qgm.QScalar {
			// Correlated scalar subqueries are "late" (they do not grow
			// the intermediate result); lateral ForEach quantifiers join
			// rows and participate in the greedy order with a dependency
			// constraint.
			if q.Kind == qgm.QScalar {
				late = append(late, q)
			} else {
				fquants = append(fquants, q)
			}
			continue
		}
		late = append(late, q)
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
		for _, pi := range preds {
			if pi.sub == nil && !pi.applied && depsSubset(pi.deps, bound, q) {
				pi.applied = true
			}
		}
		cur *= bestScoreOr(bestScore, 1)
		cur = math.Max(cur, 1)
		card = append(card, cur)
	}

	// Place each late quantifier at the cheapest legal position.
	type insertion struct {
		q   *qgm.Quantifier
		pos int
		seq int // declared order for stable ties
	}
	var ins []insertion
	for seq, q := range late {
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
		ins = append(ins, insertion{q: q, pos: bestPos, seq: seq})
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
	bp.order = out
	return bp
}

func bestScoreOr(v, def float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return def
	}
	return v
}
