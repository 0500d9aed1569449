package engine_test

import (
	"fmt"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// execCounters extracts the counters that must match bit-for-bit between
// the vectorized and row engines at every worker count. CSERecomputes and
// MemoHits are scheduling-sensitive at workers>1 (documented in
// exec.Options.Workers) and are excluded.
func execCounters(s *exec.Stats) [7]int64 {
	return [7]int64{s.BoxEvals, s.RowsScanned, s.IndexLookups, s.RowsJoined,
		s.RowsGrouped, s.HashBuilds, s.SubqueryInvocations}
}

// TestColumnarRowParity runs the paper workload with the vectorized engine
// on and off at workers 1, 2, and 8: rows (including order) and execution
// counters must be identical. This is the determinism matrix of the
// vectorized executor — the same contract the differ's rowmode variants
// fuzz, pinned here on the known queries.
func TestColumnarRowParity(t *testing.T) {
	tpcdDB := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 7})
	empDB := tpcd.EmpDept()
	cases := []struct {
		name, sql  string
		db         *storage.DB
		strategies []engine.Strategy
	}{
		{"Example", tpcd.ExampleQuery, empDB, []engine.Strategy{engine.NI, engine.Magic}},
		{"Query1", tpcd.Query1, tpcdDB, []engine.Strategy{engine.NI, engine.Magic}},
		{"Query2", tpcd.Query2, tpcdDB, []engine.Strategy{engine.NI, engine.Magic}},
		{"Query3", tpcd.Query3, tpcdDB, []engine.Strategy{engine.Magic}},
		{"HashJoinGroup",
			`Select D.building, Count(*), Sum(D.budget) From Dept D, Emp E
			 Where D.name = E.building Group By D.building Order By D.building`,
			empDB, []engine.Strategy{engine.NI}},
		{"IndexJoin",
			`Select E.name From Emp E, Dept D
			 Where E.building = D.building and D.budget < 20000 Order By E.name`,
			empDB, []engine.Strategy{engine.NI}},
		{"DistinctProject",
			`Select Distinct E.building From Emp E`,
			empDB, []engine.Strategy{engine.NI}},
		{"AbsOfAggregate",
			`Select D.building, Abs(Sum(D.budget) - 100000) From Dept D
			 Group By D.building Order By D.building`,
			empDB, []engine.Strategy{engine.NI}},
		{"SyntheticTable",
			`Select S.grp, Count(*), Sum(T.val) From S, T
			 Where S.grp = T.grp and S.id > 2 Group By S.grp Order By S.grp`,
			syntheticDB(), []engine.Strategy{engine.NI}},
	}
	for _, c := range cases {
		for _, s := range c.strategies {
			t.Run(c.name+"/"+s.String(), func(t *testing.T) {
				type run struct {
					rows  []string
					stats [7]int64
				}
				var want *run
				for _, w := range []int{1, 2, 8} {
					for _, rowMode := range []bool{false, true} {
						e := engine.New(c.db)
						e.Workers = w
						e.RowMode = rowMode
						rows, stats, err := e.Query(c.sql, s)
						if err != nil {
							t.Fatalf("workers=%d rowmode=%v: %v", w, rowMode, err)
						}
						got := run{rows: ordered(rows), stats: execCounters(stats)}
						if want == nil {
							want = &got
							continue
						}
						if len(got.rows) != len(want.rows) {
							t.Fatalf("workers=%d rowmode=%v: %d rows, want %d",
								w, rowMode, len(got.rows), len(want.rows))
						}
						for i := range got.rows {
							if got.rows[i] != want.rows[i] {
								t.Fatalf("workers=%d rowmode=%v row %d: got %q want %q",
									w, rowMode, i, got.rows[i], want.rows[i])
							}
						}
						if got.stats != want.stats {
							t.Fatalf("workers=%d rowmode=%v: counters %v, want %v",
								w, rowMode, got.stats, want.stats)
						}
					}
				}
			})
		}
	}
}

// syntheticDB holds a synthetic table S (rows from a deterministic
// RowSource, like the sys.* catalog) next to a stored table T.
func syntheticDB() *storage.DB {
	db := storage.NewDB()
	grps := []string{"a", "b", "c"}
	db.CreateSynthetic(schema.NewTable("s",
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "grp", Type: schema.TString},
	), func() []storage.Row {
		rows := make([]storage.Row, 40)
		for i := range rows {
			rows[i] = storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(grps[i%3])}
		}
		return rows
	})
	t := db.Create(schema.NewTable("t",
		schema.Column{Name: "grp", Type: schema.TString},
		schema.Column{Name: "val", Type: schema.TInt},
	))
	for i := 0; i < 10; i++ {
		if err := t.Insert(storage.Row{sqltypes.NewString(grps[i%2]), sqltypes.NewInt(int64(i))}); err != nil {
			panic(err)
		}
	}
	return db
}

// edgeDB builds a table tailored for selection-vector edge cases: n rows
// where val is NULL on every third row and grp cycles through three
// strings.
func edgeDB(n int) *storage.DB {
	db := storage.NewDB()
	tbl := db.Create(schema.NewTable("t",
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "val", Type: schema.TInt},
		schema.Column{Name: "grp", Type: schema.TString},
	))
	grps := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		val := sqltypes.NewInt(int64(i % 50))
		if i%3 == 2 {
			val = sqltypes.Null
		}
		if err := tbl.Insert(storage.Row{
			sqltypes.NewInt(int64(i)), val, sqltypes.NewString(grps[i%3]),
		}); err != nil {
			panic(err)
		}
	}
	return db
}

// TestColumnarEdgeCases pins the selection-vector edge cases: empty
// tables, all-NULL columns (as filter operands, join keys, and group
// keys), and batch sizes straddling the columnar morsel boundary — all
// compared row-vs-columnar at several worker counts.
func TestColumnarEdgeCases(t *testing.T) {
	queries := []struct{ name, sql string }{
		{"FilterNullable", `Select T.id From T Where T.val > 10 Order By T.id`},
		{"SelfJoinNullKey", `Select A.id From T A, T B Where A.val = B.val and B.id < 5 Order By A.id`},
		{"GroupNullable", `Select T.grp, Count(T.val), Sum(T.val), Min(T.val) From T
			Group By T.grp Order By T.grp`},
		{"UngroupedEmptyFilter", `Select Count(*), Sum(T.val) From T Where T.id < 0`},
		{"DistinctVals", `Select Distinct T.val From T`},
	}
	// 0: empty table; 1: single row; 2047/2048/2049/4097: morsel-boundary
	// splits around colMorsel=2048.
	for _, n := range []int{0, 1, 2047, 2048, 2049, 4097} {
		db := edgeDB(n)
		for _, q := range queries {
			t.Run(fmt.Sprintf("%s/n=%d", q.name, n), func(t *testing.T) {
				var want []string
				for _, w := range []int{1, 8} {
					for _, rowMode := range []bool{false, true} {
						e := engine.New(db)
						e.Workers = w
						e.RowMode = rowMode
						rows, _, err := e.Query(q.sql, engine.NI)
						if err != nil {
							t.Fatalf("workers=%d rowmode=%v: %v", w, rowMode, err)
						}
						got := ordered(rows)
						if want == nil {
							want = got
							if len(want) == 0 {
								want = []string{} // distinguish "ran" from nil
							}
							continue
						}
						if len(got) != len(want) {
							t.Fatalf("workers=%d rowmode=%v: %d rows, want %d",
								w, rowMode, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("workers=%d rowmode=%v row %d: got %q want %q",
									w, rowMode, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestColumnarAllNullColumn pins the all-NULL column representation (a
// vector with no typed array at all): comparisons yield UNKNOWN, join
// keys never match, COUNT skips, and GROUP BY folds into the NULL group.
func TestColumnarAllNullColumn(t *testing.T) {
	db := storage.NewDB()
	tbl := db.Create(schema.NewTable("n",
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "v", Type: schema.TInt},
	))
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(storage.Row{sqltypes.NewInt(int64(i)), sqltypes.Null}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []struct {
		sql  string
		want int
	}{
		{`Select N.id From N Where N.v = 3`, 0},
		{`Select A.id From N A, N B Where A.v = B.v`, 0},
		{`Select Count(N.v), Count(*) From N`, 1},
		{`Select N.v, Count(*) From N Group By N.v`, 1},
	} {
		for _, rowMode := range []bool{false, true} {
			e := engine.New(db)
			e.RowMode = rowMode
			rows, _, err := e.Query(q.sql, engine.NI)
			if err != nil {
				t.Fatalf("%s rowmode=%v: %v", q.sql, rowMode, err)
			}
			if len(rows) != q.want {
				t.Fatalf("%s rowmode=%v: %d rows, want %d", q.sql, rowMode, len(rows), q.want)
			}
		}
	}
}

// TestRowModeEnv pins the DECORR_ROWMODE escape hatch: with the variable
// set, every execution takes the row path (observable only as identical
// results here; the variable exists for bisection in the field).
func TestRowModeEnv(t *testing.T) {
	db := tpcd.EmpDept()
	e := engine.New(db)
	want, _, err := e.Query(tpcd.ExampleQuery, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("DECORR_ROWMODE", "1")
	got, _, err := engine.New(db).Query(tpcd.ExampleQuery, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	w, g := ordered(want), ordered(got)
	if len(w) != len(g) {
		t.Fatalf("rowmode env: %d rows, want %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("rowmode env row %d: got %q want %q", i, g[i], w[i])
		}
	}
}
