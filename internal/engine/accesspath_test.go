package engine_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/sqltypes"
	"decorr/internal/tpcd"
)

// TestAccessPathGolden pins the executor's access-path decisions on the
// Figures 5–9 queries: which quantifier is probed through an index, which
// is hash-joined, which is scanned, and where each subquery binds all show
// up in the work counters and in the cost model's estimate. The row and
// columnar evaluators read one compiled plan per box, so their parity
// cannot catch a change in that plan; this golden does. Regenerate with
// -update after a deliberate plan change.
func TestAccessPathGolden(t *testing.T) {
	figures := []struct {
		name string
		sql  string
		idx  bool
	}{
		{"fig5 Query 1", tpcd.Query1, true},
		{"fig6 Query 1(b)", tpcd.Query1b, true},
		{"fig7 Query 1(b) no ps_partkey index", tpcd.Query1b, false},
		{"fig8 Query 2", tpcd.Query2, true},
		{"fig9 Query 3", tpcd.Query3, true},
	}
	var b strings.Builder
	// SF 0.01 keeps the run short; at SF 0.05 Query 1 also returns rows
	// and the dropped ps_partkey index changes NI's subquery access path.
	for _, sf := range []float64{0.01, 0.05} {
		db := tpcd.Generate(tpcd.Config{SF: sf, Seed: 42})
		noIdx := tpcd.Generate(tpcd.Config{SF: sf, Seed: 42})
		if err := noIdx.MustTable("partsupp").DropIndex("ps_partkey"); err != nil {
			t.Fatal(err)
		}
		for _, f := range figures {
			for _, s := range engine.Strategies {
				for _, workers := range []int{1, 2} {
					e := engine.New(db)
					if !f.idx {
						e = engine.New(noIdx)
					}
					e.Workers = workers
					p, err := e.Prepare(f.sql, s)
					if err != nil {
						continue // the strategy does not apply to this query
					}
					rows, st, err := p.Run()
					if err != nil {
						t.Fatalf("%s %s workers=%d: %v", f.name, s, workers, err)
					}
					h := fnv.New64a()
					for _, r := range rows {
						h.Write([]byte(sqltypes.Key(r)))
					}
					fmt.Fprintf(&b, "SF %g %s | %s (chosen %s) | workers=%d | rows=%d digest=%016x | "+
						"evals=%d scanned=%d lookups=%d joined=%d grouped=%d hashbuilds=%d inv=%d batchexec=%d | cost=%v\n",
						sf, f.name, s, p.Chosen, workers, len(rows), h.Sum64(),
						st.BoxEvals, st.RowsScanned, st.IndexLookups, st.RowsJoined, st.RowsGrouped,
						st.HashBuilds, st.SubqueryInvocations, st.BatchExecutions, p.EstimatedCost)
				}
			}
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "access_paths.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("access paths drifted from golden file (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
