package exec

import (
	"math"

	"decorr/internal/qgm"
)

// The estimator is deliberately small: it exists to order joins the way the
// paper's optimizer would (selective scans first, connected joins before
// cross products), not to be a cost model. Selectivity defaults follow the
// classic System R constants.
const (
	selEqDefault    = 0.1
	selRange        = 1.0 / 3.0
	selLike         = 0.1
	selNe           = 0.9
	selOther        = 1.0 / 3.0
	crossPenalty    = 1e3
	defaultNDVRatio = 10.0
)

// estBoxRows estimates the output cardinality of a box, memoized. analyze
// warms the memo for every box reachable from the Run root before any
// fan-out, so calls during parallel execution are pure memo hits and the
// join order cannot depend on which worker resolved an estimate first; the
// lock is for -race cleanliness on the estimation-only entry points.
func (ex *Exec) estBoxRows(b *qgm.Box) float64 {
	ex.estMu.Lock()
	if v, ok := ex.est[b]; ok {
		ex.estMu.Unlock()
		return v
	}
	ex.est[b] = 1 // guard against cycles (impossible in valid graphs)
	ex.estMu.Unlock()
	var v float64
	switch b.Kind {
	case qgm.BoxBase:
		if t := ex.db.Table(b.Table.Name); t != nil {
			v = math.Max(1, float64(len(t.Rows)))
		} else {
			v = 1
		}
	case qgm.BoxSelect:
		v = 1
		for _, q := range b.Quants {
			if q.Kind == qgm.QForEach {
				v *= ex.estBoxRows(q.Input)
			}
		}
		for _, p := range b.Preds {
			v *= ex.predSel(p)
		}
		v = math.Max(1, v)
	case qgm.BoxGroup:
		if len(b.GroupBy) == 0 {
			v = 1
		} else {
			in := ex.estBoxRows(b.Quants[0].Input)
			ndv := 1.0
			for _, g := range b.GroupBy {
				ndv *= ex.estNDV(g)
			}
			v = math.Max(1, math.Min(in, ndv))
		}
	case qgm.BoxUnion:
		for _, q := range b.Quants {
			v += ex.estBoxRows(q.Input)
		}
	case qgm.BoxIntersect:
		v = math.Max(1, math.Min(ex.estBoxRows(b.Quants[0].Input), ex.estBoxRows(b.Quants[1].Input))/2)
	case qgm.BoxExcept:
		v = math.Max(ex.estBoxRows(b.Quants[0].Input)/2, 1)
	case qgm.BoxLeftJoin:
		v = math.Max(ex.estBoxRows(b.Quants[0].Input), 1)
	default:
		v = 1
	}
	ex.estMu.Lock()
	ex.est[b] = v
	ex.estMu.Unlock()
	return v
}

// estNDV estimates the number of distinct values of an expression; exact
// for base-table column references, a root heuristic otherwise.
func (ex *Exec) estNDV(e qgm.Expr) float64 {
	if r, ok := e.(*qgm.ColRef); ok {
		in := r.Q.Input
		if in.Kind == qgm.BoxBase {
			if t := ex.db.Table(in.Table.Name); t != nil {
				return math.Max(1, float64(t.NDV(r.Col)))
			}
		}
		return math.Max(1, ex.estBoxRows(in)/defaultNDVRatio)
	}
	return defaultNDVRatio
}

// predSel estimates the selectivity of one conjunct.
func (ex *Exec) predSel(p qgm.Expr) float64 {
	switch x := p.(type) {
	case *qgm.Bin:
		switch x.Op {
		case qgm.OpEq:
			ndv := math.Max(ex.estNDV(x.L), ex.estNDV(x.R))
			// Both sides non-columns: generic equality.
			if _, lc := x.L.(*qgm.ColRef); !lc {
				if _, rc := x.R.(*qgm.ColRef); !rc {
					return selEqDefault
				}
			}
			return 1 / ndv
		case qgm.OpNe:
			return selNe
		case qgm.OpLt, qgm.OpLe, qgm.OpGt, qgm.OpGe:
			if s, ok := ex.histogramSel(x); ok {
				return s
			}
			return selRange
		case qgm.OpAnd:
			return ex.predSel(x.L) * ex.predSel(x.R)
		case qgm.OpOr:
			return math.Min(1, ex.predSel(x.L)+ex.predSel(x.R))
		}
	case *qgm.Like:
		return selLike
	case *qgm.Not:
		return 1 - ex.predSel(x.E)
	case *qgm.IsNull:
		return 0.1
	}
	return selOther
}

// estQuantGrowth estimates the per-tuple growth factor of binding q next
// (q not yet bound): its input size after local predicates, times
// join-predicate selectivity against the bound set; disconnected
// quantifiers pay a cross penalty.
func (ex *Exec) estQuantGrowth(q *qgm.Quantifier, bound map[*qgm.Quantifier]bool, preds []selPred) float64 {
	base := ex.estBoxRows(q.Input)
	connected := len(bound) == 0
	for _, pi := range preds {
		if pi.sub != nil || !pi.deps[q] {
			continue
		}
		if len(pi.deps) == 1 {
			base *= ex.predSel(pi.expr) // local predicate
			continue
		}
		if depsSubset(pi.deps, bound, q) {
			base *= ex.predSel(pi.expr)
			connected = true
		}
	}
	if !connected && len(bound) > 0 {
		base *= crossPenalty
	}
	return math.Max(base, 1e-6)
}

// EstimateGrowth exposes the per-tuple growth estimate of binding q next
// in box b, given an already-bound set that excludes q (used by the
// shared-nothing plan model). It accounts for q's local predicate
// selectivity and the join predicates connecting it to the bound set.
func (ex *Exec) EstimateGrowth(b *qgm.Box, q *qgm.Quantifier, bound map[*qgm.Quantifier]bool) float64 {
	return ex.estQuantGrowth(q, bound, ex.planOf(b, nil).preds)
}

// histogramSel estimates a range comparison between a base-table column
// and a constant from the column's equi-depth histogram.
func (ex *Exec) histogramSel(b *qgm.Bin) (float64, bool) {
	ref, cst, op := exprConstSides(b)
	if ref == nil {
		return 0, false
	}
	in := ref.Q.Input
	if in.Kind != qgm.BoxBase {
		return 0, false
	}
	t := ex.db.Table(in.Table.Name)
	if t == nil {
		return 0, false
	}
	h := t.Histogram(ref.Col)
	if h == nil {
		return 0, false
	}
	var s float64
	switch op {
	case qgm.OpLt:
		s = h.FracBelow(cst.V, false)
	case qgm.OpLe:
		s = h.FracBelow(cst.V, true)
	case qgm.OpGt:
		s = float64(h.NonNull)/float64(h.Rows) - h.FracBelow(cst.V, true)
	case qgm.OpGe:
		s = float64(h.NonNull)/float64(h.Rows) - h.FracBelow(cst.V, false)
	default:
		return 0, false
	}
	return math.Min(1, math.Max(s, 1e-4)), true
}

// exprConstSides decomposes cmp into (column, constant, normalized op with
// the column on the left).
func exprConstSides(b *qgm.Bin) (*qgm.ColRef, *qgm.Const, qgm.Op) {
	if r, ok := b.L.(*qgm.ColRef); ok {
		if c, ok := b.R.(*qgm.Const); ok {
			return r, c, b.Op
		}
	}
	if r, ok := b.R.(*qgm.ColRef); ok {
		if c, ok := b.L.(*qgm.Const); ok {
			return r, c, b.Op.Flip()
		}
	}
	return nil, nil, b.Op
}
