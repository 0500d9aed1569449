package exec_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"decorr/internal/core"
	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/semant"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

func mustPrepare(b *testing.B, db *storage.DB, sql string) func() {
	b.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	return func() {
		ex := exec.New(db, exec.Options{})
		if _, err := ex.Run(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoin measures the equi-join path (build + probe).
func BenchmarkHashJoin(b *testing.B) {
	db := tpcd.Generate(tpcd.Config{SF: 0.05, Seed: 1, SkipIndexes: true})
	run := mustPrepare(b, db, `
		select count(*) from partsupp ps, suppliers s
		where ps.ps_suppkey = s.s_suppkey`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkIndexNestedLoop measures the index probe path.
func BenchmarkIndexNestedLoop(b *testing.B) {
	db := tpcd.Generate(tpcd.Config{SF: 0.05, Seed: 1})
	run := mustPrepare(b, db, `
		select count(*) from parts p, partsupp ps
		where p.p_partkey = ps.ps_partkey and p.p_size < 4`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkHashAggregate measures grouped aggregation throughput.
func BenchmarkHashAggregate(b *testing.B) {
	db := tpcd.Generate(tpcd.Config{SF: 0.05, Seed: 1})
	run := mustPrepare(b, db, `
		select l_partkey, sum(l_quantity), count(*) from lineitem group by l_partkey`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkDistinct measures deduplication.
func BenchmarkDistinct(b *testing.B) {
	db := tpcd.Generate(tpcd.Config{SF: 0.05, Seed: 1})
	run := mustPrepare(b, db, `select distinct l_partkey from lineitem`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkPredicateEval measures expression evaluation over a scan.
func BenchmarkPredicateEval(b *testing.B) {
	db := tpcd.Generate(tpcd.Config{SF: 0.05, Seed: 1})
	run := mustPrepare(b, db, `
		select count(*) from lineitem
		where l_quantity * 2 + 1 > 30 and l_extendedprice < 50000`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkCorrelatedInvocation isolates the per-binding cost of nested
// iteration (index-assisted subquery).
func BenchmarkCorrelatedInvocation(b *testing.B) {
	for _, nDept := range []int{50, 200} {
		db := tpcd.EmpDeptSized(nDept, 2000, 16, 1)
		run := mustPrepare(b, db, tpcd.ExampleQuery)
		b.Run(fmt.Sprintf("bindings=%d", nDept), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkJoinOrderPlanning isolates the static planner.
func BenchmarkJoinOrderPlanning(b *testing.B) {
	db := tpcd.Generate(tpcd.Config{SF: 0.02, Seed: 1})
	q, err := parser.Parse(tpcd.Query1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	ex := exec.New(db, exec.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.JoinOrder(g.Root)
	}
}

// BenchmarkCorrelatedReentry is the calibration behind
// correlatedEvalOverhead in cost.go: the fixed cost of re-entering a
// correlated subquery plan once, in units of the counted row operations
// (Stats.Work) the cost model charges everything else in. It measures the
// paper's Figure 6 workload (Query 1(b), TPC-D SF 0.1), where the choice
// between the plans matters: each iteration runs the nested-iteration plan
// (823 re-entries of the two-table aggregate subquery) and the
// magic-decorrelated plan on the columnar path, back to back at
// workers=1 so host noise hits both alike. Per iteration,
//
//   - ns/rowop is the decorrelated plan's wall time per counted row
//     operation;
//   - ns/reentry is the nested-iteration wall time not explained by its
//     own counted row operations at that rate, per subquery invocation
//     (the model charges those rows separately, through the subquery's
//     input cost);
//   - rowops/reentry is their ratio, the constant's basis.
//
// Each metric is the median over the iterations.
func BenchmarkCorrelatedReentry(b *testing.B) {
	db := tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})
	plan := func(decorrelate bool) *qgm.Graph {
		q, err := parser.Parse(tpcd.Query1b)
		if err != nil {
			b.Fatal(err)
		}
		g, err := semant.Bind(q, db.Catalog)
		if err != nil {
			b.Fatal(err)
		}
		if err := rewrite.NewCleanup().Run(g); err != nil {
			b.Fatal(err)
		}
		if decorrelate {
			opts := core.DefaultOptions()
			opts.EliminateSupplementary = true
			opts.Order = exec.New(db, exec.Options{}).JoinOrder
			if err := core.Decorrelate(g, opts, nil); err != nil {
				b.Fatal(err)
			}
			if err := rewrite.NewCleanup().Run(g); err != nil {
				b.Fatal(err)
			}
		}
		return g
	}
	gNI, gSet := plan(false), plan(true)
	run := func(g *qgm.Graph) (int, exec.Stats, float64) {
		ex := exec.New(db, exec.Options{Workers: 1})
		start := time.Now()
		rows, err := ex.Run(g)
		ns := float64(time.Since(start).Nanoseconds())
		if err != nil {
			b.Fatal(err)
		}
		return len(rows), ex.Stats, ns
	}
	var nsRowOp, nsReentry, ratio []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nNI, sNI, tNI := run(gNI)
		nSet, sSet, tSet := run(gSet)
		if nNI != nSet || sNI.SubqueryInvocations == 0 || sSet.SubqueryInvocations != 0 {
			b.Fatalf("plan shapes changed: NI %d rows/%d invocations, decorrelated %d rows/%d invocations",
				nNI, sNI.SubqueryInvocations, nSet, sSet.SubqueryInvocations)
		}
		perOp := tSet / float64(sSet.Work())
		perEntry := (tNI - perOp*float64(sNI.Work())) / float64(sNI.SubqueryInvocations)
		nsRowOp = append(nsRowOp, perOp)
		nsReentry = append(nsReentry, perEntry)
		ratio = append(ratio, perEntry/perOp)
	}
	b.StopTimer()
	b.ReportMetric(median(nsRowOp), "ns/rowop")
	b.ReportMetric(median(nsReentry), "ns/reentry")
	b.ReportMetric(median(ratio), "rowops/reentry")
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
