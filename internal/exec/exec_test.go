package exec_test

import (
	"strings"
	"testing"

	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/semant"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// run parses, binds and executes sql against db with nested iteration
// (no rewrites), returning rendered rows.
func run(t *testing.T, db *storage.DB, sql string) []string {
	t.Helper()
	rows, _, err := runErr(db, sql)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows
}

func runErr(db *storage.DB, sql string) ([]string, *exec.Stats, error) {
	q, err := parser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		return nil, nil, err
	}
	if err := qgm.Validate(g); err != nil {
		return nil, nil, err
	}
	ex := exec.New(db, exec.Options{})
	rows, err := ex.Run(g)
	if err != nil {
		return nil, nil, err
	}
	return render(rows), &ex.Stats, nil
}

func render(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func expectRows(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestExampleQueryNestedIteration(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, tpcd.ExampleQuery)
	// archives qualifies only because COUNT over an empty building is 0 —
	// the row Kim's method loses.
	expectRows(t, got, []string{"archives", "toys"})
}

func TestSimpleSelect(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select name, building from emp where building = 'B2' order by name`)
	expectRows(t, got, []string{"carl|B2", "dina|B2", "ed|B2"})
}

func TestJoin(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select d.name, e.name from dept d, emp e
		where d.building = e.building and d.budget < 8000
		order by 1, 2`)
	expectRows(t, got, []string{"tools|anne", "tools|bob"})
}

func TestGroupByHaving(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select building, count(*) as n from emp
		group by building having count(*) >= 2 order by building`)
	expectRows(t, got, []string{"B1|2", "B2|3"})
}

func TestUngroupedAggregateOnEmptyInput(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select count(*), min(name) from emp where building = 'B777'`)
	expectRows(t, got, []string{"0|NULL"})
}

func TestDistinct(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select distinct building from emp order by building`)
	expectRows(t, got, []string{"B1", "B2", "B3"})
}

func TestUnion(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select building from emp where name = 'anne'
		union
		select building from dept where name = 'tools'
		order by building`)
	expectRows(t, got, []string{"B1"})
	got = run(t, db, `
		select building from emp where name = 'anne'
		union all
		select building from dept where name = 'tools'
		order by building`)
	expectRows(t, got, []string{"B1", "B1"})
}

func TestExistsAndNotExists(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select d.name from dept d
		where exists (select * from emp e where e.building = d.building)
		order by name`)
	expectRows(t, got, []string{"jewels", "shoes", "tools", "toys"})
	got = run(t, db, `
		select d.name from dept d
		where not exists (select * from emp e where e.building = d.building)`)
	expectRows(t, got, []string{"archives"})
}

func TestInSubquery(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select name from emp where building in
		(select building from dept where budget < 8000) order by name`)
	expectRows(t, got, []string{"anne", "bob"})
	got = run(t, db, `
		select name from emp where building not in
		(select building from dept) order by name`)
	expectRows(t, got, []string{"fay"})
}

func TestAnyAll(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select name from dept where budget >= all (select budget from dept)`)
	expectRows(t, got, []string{"jewels"})
	got = run(t, db, `
		select name from dept where budget < any (select budget from dept) order by name`)
	expectRows(t, got, []string{"archives", "shoes", "tools", "toys"})
}

func TestScalarSubqueryEmptyIsNull(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select name from dept d
		where (select min(e.name) from emp e where e.building = d.building) is null
		order by name`)
	expectRows(t, got, []string{"archives"})
}

func TestCorrelationStats(t *testing.T) {
	db := tpcd.EmpDept()
	_, stats, err := runErr(db, tpcd.ExampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	// 4 low-budget departments -> 4 invocations over 3 distinct buildings
	// (B1 twice).
	if stats.SubqueryInvocations != 4 {
		t.Errorf("invocations = %d, want 4", stats.SubqueryInvocations)
	}
	if stats.DistinctInvocations != 3 {
		t.Errorf("distinct invocations = %d, want 3", stats.DistinctInvocations)
	}
}

func TestMemoizedNI(t *testing.T) {
	db := tpcd.EmpDept()
	q, err := parser.Parse(tpcd.ExampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(db, exec.Options{MemoizeCorrelated: true})
	rows, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, render(rows), []string{"archives", "toys"})
	if ex.Stats.MemoHits != 1 {
		t.Errorf("memo hits = %d, want 1 (B1 repeated)", ex.Stats.MemoHits)
	}
}

// The NI memo is single-flight: workers racing on one binding evaluate
// it once, and the rest count memo hits. Every counter, MemoHits and
// BoxEvals included, is then the same at any worker count.
func TestMemoizedNISingleFlight(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 400, 6, 11)
	q, err := parser.Parse(tpcd.ExampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	runStats := func(workers int) exec.Stats {
		ex := exec.New(db, exec.Options{MemoizeCorrelated: true, Workers: workers})
		if _, err := ex.Run(g); err != nil {
			t.Fatal(err)
		}
		return ex.Stats
	}
	want := runStats(1)
	if want.MemoHits != want.SubqueryInvocations-want.DistinctInvocations {
		t.Fatalf("workers=1: %d memo hits for %d invocations over %d bindings",
			want.MemoHits, want.SubqueryInvocations, want.DistinctInvocations)
	}
	for i := 0; i < 20; i++ {
		if got := runStats(8); got != want {
			t.Fatalf("run %d, workers=8: stats %s, workers=1 %s", i, got.String(), want.String())
		}
	}
}

func TestDerivedTable(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select b, n from (select building, count(*) from emp group by building) as t(b, n)
		where n > 1 order by b`)
	expectRows(t, got, []string{"B1|2", "B2|3"})
}

func TestArithmeticAndAliases(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select name, budget / 2 + 1 as half from dept where name = 'toys'`)
	expectRows(t, got, []string{"toys|4001"})
}

func TestBetweenAndLikeAndInList(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select name from dept where budget between 7000 and 9000 order by name`)
	expectRows(t, got, []string{"shoes", "tools", "toys"})
	got = run(t, db, `select name from emp where name like '%a%' order by name`)
	expectRows(t, got, []string{"anne", "carl", "dina", "fay"})
	got = run(t, db, `select name from emp where building in ('B2', 'B3') order by name`)
	expectRows(t, got, []string{"carl", "dina", "ed", "fay"})
}

func TestMultiLevelCorrelation(t *testing.T) {
	db := tpcd.EmpDept()
	// The innermost block references d.building across two levels.
	got := run(t, db, `
		select d.name from dept d
		where d.num_emps > (
			select count(*) from emp e
			where e.building = d.building and exists (
				select * from emp e2 where e2.building = d.building and e2.name < e.name))
		order by name`)
	// counts: B1 -> emps with a smaller-named colleague in B1: bob(anne) = 1;
	// toys 3>1 yes, tools 2>1 yes. B2 -> dina(carl), ed(carl,dina) = 2;
	// shoes 1>2 no, jewels budget irrelevant (num_emps 4 > 2 yes).
	// archives: count 0, 1>0 yes.
	expectRows(t, got, []string{"archives", "jewels", "tools", "toys"})
}

func TestAvgSumMinMax(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select sum(budget), min(budget), max(budget) from dept`)
	expectRows(t, got, []string{"74500|500|50000"})
	got = run(t, db, `select count(distinct building) from dept`)
	expectRows(t, got, []string{"3"})
}

func TestHavingWithSubqueries(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select building, count(*) from emp
		group by building
		having count(*) > (select min(num_emps) from dept)
		order by building`)
	// min(num_emps) = 1; buildings with >1 employees: B1 (2), B2 (3).
	expectRows(t, got, []string{"B1|2", "B2|3"})

	got = run(t, db, `
		select building from emp
		group by building
		having exists (select * from dept where budget > 40000)
		order by building`)
	expectRows(t, got, []string{"B1", "B2", "B3"})

	got = run(t, db, `
		select building from emp
		group by building
		having count(*) in (select num_emps from dept)
		order by building`)
	// counts: B1=2, B2=3, B3=1; dept num_emps: {3,1,1,2,4}.
	expectRows(t, got, []string{"B1", "B2", "B3"})
}

func TestHavingSubqueryUngroupedColumnRejected(t *testing.T) {
	db := tpcd.EmpDept()
	_, _, err := runErr(db, `
		select building from emp e
		group by building
		having exists (select * from dept d where d.name = e.name)`)
	if err == nil {
		t.Fatal("HAVING subquery referencing an ungrouped column must be rejected")
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select d.name, e.name
		from dept d left outer join emp e on d.building = e.building
		where d.budget < 9000
		order by 2, 1`)
	if got[0] != "archives|NULL" {
		t.Fatalf("NULL should sort first ascending: %v", got)
	}
	got = run(t, db, `
		select d.name, e.name
		from dept d left outer join emp e on d.building = e.building
		where d.budget < 9000
		order by 2 desc, 1`)
	if got[len(got)-1] != "archives|NULL" {
		t.Fatalf("NULL should sort last descending: %v", got)
	}
}

func TestScalarSubqueryMultipleRowsErrors(t *testing.T) {
	db := tpcd.EmpDept()
	_, _, err := runErr(db, `
		select name from dept
		where budget = (select budget from dept)`)
	if err == nil || !strings.Contains(err.Error(), "scalar subquery") {
		t.Fatalf("want scalar cardinality error, got %v", err)
	}
}

func TestMinMaxOverStrings(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select min(name), max(name) from emp`)
	expectRows(t, got, []string{"anne|fay"})
}

func TestGroupByExpression(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select budget / 1000, count(*) from dept
		group by budget / 1000
		order by 1`)
	// Division is float (integer division is not modeled):
	// budgets 500, 7000, 8000, 9000, 50000.
	expectRows(t, got, []string{"0.5|1", "7|1", "8|1", "9|1", "50|1"})
}

func TestAvgOfEmptyGroupIsNull(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select avg(budget) from dept where budget > 999999`)
	expectRows(t, got, []string{"NULL"})
}

func TestSumIntegerStaysInteger(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select sum(num_emps) from dept`)
	expectRows(t, got, []string{"11"})
}

func TestNotInWithNullInSubquery(t *testing.T) {
	db := tpcd.EmpDept()
	// The classic NOT IN trap: a NULL in the subquery makes every
	// comparison UNKNOWN, so no row can pass.
	got := run(t, db, `
		select name from emp where building not in
		(select building from dept union all select null from dept)`)
	expectRows(t, got, nil)
	// IN is unaffected by the NULL for matching values.
	got = run(t, db, `
		select name from emp where building in
		(select building from dept union all select null from dept)
		order by name`)
	expectRows(t, got, []string{"anne", "bob", "carl", "dina", "ed"})
}

func TestAllVacuousAndUnknown(t *testing.T) {
	db := tpcd.EmpDept()
	// ALL over an empty set is vacuously true.
	got := run(t, db, `
		select count(*) from dept
		where budget > all (select budget from dept where name = 'nosuch')`)
	expectRows(t, got, []string{"5"})
	// A NULL in the ALL set forces UNKNOWN for otherwise-true rows.
	got = run(t, db, `
		select name from dept
		where budget >= all (select budget from dept union all select null from dept)`)
	expectRows(t, got, nil)
}

func TestAnyOverEmptyIsFalse(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `
		select count(*) from dept
		where budget = any (select budget from dept where name = 'nosuch')`)
	expectRows(t, got, []string{"0"})
}

func TestLimit(t *testing.T) {
	db := tpcd.EmpDept()
	got := run(t, db, `select name from emp order by name limit 3`)
	expectRows(t, got, []string{"anne", "bob", "carl"})
	got = run(t, db, `select name from emp limit 0`)
	expectRows(t, got, nil)
	got = run(t, db, `select name from emp limit 100`)
	if len(got) != 6 {
		t.Fatalf("over-limit truncated: %d rows", len(got))
	}
	if _, _, err := runErr(db, `select name from (select name from emp limit 2) as t`); err == nil {
		t.Fatal("inner LIMIT must be rejected")
	}
	if _, _, err := runErr(db, `select name from (select name from emp order by name) as t`); err == nil {
		t.Fatal("inner ORDER BY must be rejected")
	}
}

// TestGroupOutputFunctionParity runs a group box whose output wraps an
// aggregate in a function other than coalesce — the binder projects such
// outputs in a select box above the group, so the graph is edited by hand
// — on the vectorized and row engines: outputs are evaluated per group
// from the accumulators either way, so rows and counters must match.
func TestGroupOutputFunctionParity(t *testing.T) {
	db := tpcd.EmpDept()
	var want []string
	var wantStats exec.Stats
	for _, rowMode := range []bool{false, true} {
		q, err := parser.Parse(`select d.building, sum(d.budget) - 100000 from dept d group by d.building order by d.building`)
		if err != nil {
			t.Fatal(err)
		}
		g, err := semant.Bind(q, db.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := false
		for _, b := range qgm.Boxes(g.Root) {
			if b.Kind == qgm.BoxGroup {
				for i := range b.Cols {
					if _, ok := b.Cols[i].Expr.(*qgm.Agg); ok {
						b.Cols[i].Expr = &qgm.Func{Name: "abs", Args: []qgm.Expr{b.Cols[i].Expr}}
						wrapped = true
					}
				}
			}
		}
		if !wrapped {
			t.Fatal("no aggregate output to wrap")
		}
		ex := exec.New(db, exec.Options{DisableColumnar: rowMode})
		rows, err := ex.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		got := render(rows)
		if want == nil {
			want, wantStats = got, ex.Stats
			continue
		}
		expectRows(t, got, want)
		if ex.Stats != wantStats {
			t.Errorf("row path counters %+v, columnar %+v", ex.Stats, wantStats)
		}
	}
	if len(want) == 0 {
		t.Fatal("empty result")
	}
}
