package main

import (
	"errors"
	"fmt"
	"time"

	"decorr/internal/ast"
	"decorr/internal/core"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/semant"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// probe times calls into one layer each: every call becomes a span under
// parent (when traced) and a duration sample under its name.
type probe struct {
	rec         *recorder
	parent, req int64
	d           map[string][]float64 // span name -> durations in ns
}

func newProbe(rec *recorder, parent, req int64) *probe {
	return &probe{rec: rec, parent: parent, req: req, d: map[string][]float64{}}
}

func (p *probe) time(name string, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	p.rec.leaf(p.parent, p.req, name, start, end)
	p.d[name] = append(p.d[name], float64(end.Sub(start)))
	return err
}

// medianUs is the median sample of a span name, in microseconds.
func (p *probe) medianUs(name string) float64 { return median(p.d[name]) / 1e3 }

// stagedRun is the result of one statement re-driven stage by stage.
type stagedRun struct {
	rows  []storage.Row
	stats exec.Stats
}

// staged re-drives sql through the packages' public entry points exactly
// as Engine.Prepare(sql, Auto) followed by a run does: parse once, bind
// and clean up the query twice (as written, and magic decorrelated with
// supplementary-table elimination), estimate both plans, keep the
// cheaper. Whether an NI choice runs batched is the engine's decision
// (Prepared.Chosen from Auto); staged checks that its own choice agrees.
func staged(p *probe, eng *engine.Engine, sql string, params []sqltypes.Value, autoChosen engine.Strategy) (stagedRun, error) {
	db := eng.DB
	var q ast.QueryExpr
	if err := p.time("parser.parse", func() (err error) { q, err = parser.Parse(sql); return err }); err != nil {
		return stagedRun{}, err
	}
	leg := func(decorrelate bool) (*qgm.Graph, float64, error) {
		var g *qgm.Graph
		err := p.time("semant.bind", func() (err error) {
			g, err = semant.BindWithViews(q, db.Catalog, semant.Views{})
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		cleanup := func() error { return p.time("rewrite.cleanup", func() error { return rewrite.NewCleanup().Run(g) }) }
		if err := cleanup(); err != nil {
			return nil, 0, err
		}
		if decorrelate {
			opts := eng.CoreOpts
			opts.EliminateSupplementary = true
			opts.Order = exec.New(db, exec.Options{}).JoinOrder
			if err := p.time("core.decorrelate", func() error { return core.Decorrelate(g, opts, nil) }); err != nil {
				return nil, 0, err
			}
		}
		if err := cleanup(); err != nil {
			return nil, 0, err
		}
		if err := p.time("qgm.validate", func() error { return qgm.Validate(g) }); err != nil {
			return nil, 0, err
		}
		var cost float64
		p.time("exec.estimate", func() error {
			cost = exec.New(db, exec.Options{MaterializeCSE: eng.MaterializeCSE}).EstimateCost(g)
			return nil
		})
		return g, cost, nil
	}
	niG, niCost, err := leg(false)
	if err != nil {
		return stagedRun{}, err
	}
	g, chosen := niG, engine.NI
	magG, magCost, err := leg(true)
	switch {
	case errors.Is(err, rewrite.ErrNoFixpoint):
		return stagedRun{}, err
	case err == nil && magCost < niCost:
		g, chosen = magG, engine.OptMagic
	}
	// Any other decorrelation failure leaves Auto on the NI plan.
	if chosen == engine.NI && autoChosen == engine.NIBatch {
		chosen = engine.NIBatch
	}
	if chosen != autoChosen {
		return stagedRun{}, fmt.Errorf("staged pipeline chose %s, Auto chose %s", chosen, autoChosen)
	}
	var out stagedRun
	err = p.time("exec.run", func() (err error) {
		ex := exec.New(db, exec.Options{
			MaterializeCSE:  eng.MaterializeCSE,
			BatchCorrelated: chosen == engine.NIBatch,
			Workers:         eng.Workers,
			Params:          params,
			Limits:          eng.Limits,
		})
		out.rows, err = ex.Run(g)
		out.stats = ex.Stats
		return err
	})
	return out, err
}

// overheadReps is the repetition count of the engine-overhead pairs.
const overheadReps = 101

// stmtSpec is one statement of a workload, with the engine (plan cache
// enabled, like production) it runs on.
type stmtSpec struct {
	name   string
	sql    string
	params []sqltypes.Value
	eng    *engine.Engine
}

// sameRun reports whether two runs produced identical rows, in order,
// and identical work counters.
func sameRun(rows []storage.Row, stats exec.Stats, wantRows []storage.Row, wantStats *exec.Stats) error {
	if wantStats == nil || stats != *wantStats {
		return fmt.Errorf("stats differ: staged %+v, Engine.Query %+v", stats, wantStats)
	}
	if len(rows) != len(wantRows) {
		return fmt.Errorf("staged returned %d rows, Engine.Query %d", len(rows), len(wantRows))
	}
	for i := range rows {
		if len(rows[i]) != len(wantRows[i]) {
			return fmt.Errorf("row %d width differs", i)
		}
		for j := range rows[i] {
			if !sqltypes.Identical(rows[i][j], wantRows[i][j]) {
				return fmt.Errorf("row %d column %d: staged %v, Engine.Query %v", i, j, rows[i][j], wantRows[i][j])
			}
		}
	}
	return nil
}

// pipelineProbe re-drives each statement reps times through the staged
// pipeline, checks every run against Engine.Query on the same engine
// (rows in order and Stats), and reports the library-layer metrics:
// per-call medians of each stage and of the whole uncached Auto prepare.
// The engine's own overhead on a plan-cache hit — Engine.Query's wall
// minus the executor's Run wall for the same plan — is a per-call cost
// that a large result's run-to-run noise would bury, so it is measured
// on overhead, a key lookup on the same engine: paired per repetition,
// median over overheadReps pairs.
func (b *bench) pipelineProbe(specs []stmtSpec, reps int, overhead stmtSpec) error {
	parent, req := b.rec.id(), b.nextReq()
	start := time.Now()
	p := newProbe(b.rec, parent, req)
	for _, s := range specs {
		for i := 0; i < reps; i++ {
			if err := b.stagedCheck(p, s); err != nil {
				return err
			}
		}
	}
	var diffs []float64
	for i := 0; i < overheadReps; i++ {
		op := newProbe(b.rec, parent, req)
		if err := b.stagedCheck(op, overhead); err != nil {
			return err
		}
		diffs = append(diffs, (op.d["engine.query"][0]-op.d["exec.run"][0])/1e3)
	}
	b.rec.add(parent, 0, req, "probe.pipeline", start, time.Now())
	b.metric("parser.parse_us", p.medianUs("parser.parse"))
	b.metric("semant.bind_us", p.medianUs("semant.bind"))
	b.metric("rewrite.cleanup_us", p.medianUs("rewrite.cleanup"))
	b.metric("core.decorrelate_us", p.medianUs("core.decorrelate"))
	b.metric("exec.estimate_us", p.medianUs("exec.estimate"))
	b.metric("engine.prepare_us", p.medianUs("engine.prepare"))
	b.metric("engine.overhead_us", median(diffs))
	return nil
}

// stagedCheck times one uncached Auto prepare and one Engine.Query of s,
// re-drives s through the staged pipeline, and checks that the staged run
// reproduces Engine.Query's rows and Stats; it counts as one checked op.
func (b *bench) stagedCheck(p *probe, s stmtSpec) error {
	var prep *engine.Prepared
	if err := p.time("engine.prepare", func() (err error) { prep, err = s.eng.Prepare(s.sql, engine.Auto); return err }); err != nil {
		return fmt.Errorf("%s: prepare: %w", s.name, err)
	}
	var wantRows []storage.Row
	var wantStats *exec.Stats
	if err := p.time("engine.query", func() (err error) {
		wantRows, wantStats, err = s.eng.QueryParams(s.sql, engine.Auto, s.params)
		return err
	}); err != nil {
		return fmt.Errorf("%s: Engine.Query: %w", s.name, err)
	}
	got, err := staged(p, s.eng, s.sql, s.params, prep.Chosen)
	if err == nil {
		err = sameRun(got.rows, got.stats, wantRows, wantStats)
	}
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
		return fmt.Errorf("%s: staged pipeline does not reproduce Engine.Query: %w", s.name, err)
	}
	return nil
}

// figureStrategies are the alternatives plan.chosen_vs_best compares
// Auto's choice against.
var figureStrategies = []engine.Strategy{engine.NI, engine.NIBatch, engine.Magic, engine.OptMagic}

// figureProbe measures the executor on the paper's Figures 5–9. For each
// figure it runs the plan of every strategy in figureStrategies reps
// times (the executor alone, as on a plan-cache hit), checks each result
// against the NI oracle, and reports the executor metrics of the plan
// Auto chose plus plan.chosen_vs_best: Auto's median run time over the
// fastest strategy's. It runs in every traced run, so the per-figure
// layer numbers exist whichever workload is traced.
func (b *bench) figureProbe(db, db7 *storage.DB, reps int) error {
	parent, req := b.rec.id(), b.nextReq()
	start := time.Now()
	for i, f := range figures {
		d := db
		if f.noIndex {
			d = db7
		}
		eng := engine.New(d)
		oracleRows, _, err := eng.Query(f.sql, engine.NI)
		if err != nil {
			return fmt.Errorf("%s: oracle: %w", f.name, err)
		}
		want := digestRows(oracleRows)
		auto, err := eng.Prepare(f.sql, engine.Auto)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		runMs := map[engine.Strategy]float64{}
		var chosenStats exec.Stats
		var chosenAlloc []float64
		for _, s := range figureStrategies {
			prep, err := eng.Prepare(f.sql, s)
			if err != nil {
				return fmt.Errorf("%s %s: %w", f.name, s, err)
			}
			var times, allocs []float64
			for r := 0; r < reps; r++ {
				ex := exec.New(d, exec.Options{BatchCorrelated: s == engine.NIBatch})
				a0 := allocBytes()
				t0 := time.Now()
				rows, err := ex.Run(prep.Graph)
				t1 := time.Now()
				allocs = append(allocs, float64(allocBytes()-a0)/1024)
				times = append(times, ms(t1.Sub(t0)))
				b.rec.leaf(parent, req, "exec.run."+s.String(), t0, t1)
				b.check(f.name+" "+s.String(), digestRows(rows), err, want, true)
				if s == auto.Chosen {
					chosenStats = ex.Stats
				}
			}
			runMs[s] = median(times)
			if s == auto.Chosen {
				chosenAlloc = allocs
			}
		}
		chosen, ok := runMs[auto.Chosen]
		if !ok {
			return fmt.Errorf("%s: Auto chose %s, outside the compared strategies", f.name, auto.Chosen)
		}
		best, bestS := chosen, auto.Chosen
		for _, s := range figureStrategies {
			if runMs[s] < best {
				best, bestS = runMs[s], s
			}
		}
		n := figNames[i]
		collapse := 0.0
		if chosenStats.BatchExecutions > 0 {
			collapse = float64(chosenStats.BatchedSubqueries) / float64(chosenStats.BatchExecutions)
		}
		b.metric("plan.chosen_vs_best."+n, chosen/best)
		b.metric("exec.run_ms."+n, chosen)
		b.metric("exec.work."+n, float64(chosenStats.Work()))
		b.metric("exec.subquery_invocations."+n, float64(chosenStats.SubqueryInvocations))
		b.metric("exec.batch_collapse."+n, collapse)
		b.metric("exec.hash_builds."+n, float64(chosenStats.HashBuilds))
		b.metric("exec.alloc_kb."+n, median(chosenAlloc))
		logf("%s: Auto chose %s (%.3f ms); fastest %s (%.3f ms); runs %v", n, auto.Chosen, chosen, bestS, best, fmtRunMs(runMs))
	}
	b.rec.add(parent, 0, req, "probe.figures", start, time.Now())
	return nil
}

func fmtRunMs(m map[engine.Strategy]float64) string {
	s := ""
	for _, st := range figureStrategies {
		s += fmt.Sprintf("%s=%.3fms ", st, m[st])
	}
	return s
}

// generate builds a workload's in-process database. In traced runs it
// also times the generator (tpcd.generate_s) and the first fill of the
// storage layer's lazy caches — every table's column vectors and every
// column's NDV estimate (storage.warm_s).
func (b *bench) generate(gen func() *storage.DB) *storage.DB {
	t0 := time.Now()
	db := gen()
	t1 := time.Now()
	if !b.traced {
		return db
	}
	for _, def := range db.Catalog.Tables() {
		t := db.Table(def.Name)
		t.ColVecs()
		for c := range def.Columns {
			t.NDV(c)
		}
	}
	t2 := time.Now()
	req := b.nextReq()
	b.rec.leaf(0, req, "tpcd.generate", t0, t1)
	b.rec.leaf(0, req, "storage.warm", t1, t2)
	b.metric("tpcd.generate_s", t1.Sub(t0).Seconds())
	b.metric("storage.warm_s", t2.Sub(t1).Seconds())
	return db
}
