package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"decorr/internal/engine"
	"decorr/internal/server"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// analyticDBs is the analytic workload's library-path state: the TPC-D
// database, its copy without the ps_partkey index (Figure 7), and an
// engine over each with the production plan cache.
type analyticDBs struct {
	db, db7   *storage.DB
	eng, eng7 *engine.Engine
}

func (a *analyticDBs) engine(fig int) *engine.Engine {
	if figures[fig].noIndex {
		return a.eng7
	}
	return a.eng
}

func genTPCD() *storage.DB { return tpcd.Generate(tpcd.Config{SF: tpcdSF, Seed: dataSeed}) }

// genTPCDNoIndex is the Figure 7 database: TPC-D without the ps_partkey
// index the correlated subquery probes.
func genTPCDNoIndex() (*storage.DB, error) {
	db := genTPCD()
	return db, db.MustTable("partsupp").DropIndex("ps_partkey")
}

// setupAnalytic generates both databases, builds the engines, and warms
// them: one Auto run per figure fills the plan cache and the storage
// layer's lazy caches, as the first queries of a long-running process do.
func (b *bench) setupAnalytic() (*analyticDBs, error) {
	a := &analyticDBs{db: b.generate(genTPCD)}
	var err error
	if a.db7, err = genTPCDNoIndex(); err != nil {
		return nil, err
	}
	a.eng, a.eng7 = engine.New(a.db), engine.New(a.db7)
	a.eng.EnablePlanCache(planCacheSize)
	a.eng7.EnablePlanCache(planCacheSize)
	for i, f := range figures {
		if _, _, err := a.engine(i).Query(f.sql, engine.Auto); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	return a, nil
}

// figureOracle runs every figure under NI on a cache-less engine.
func figureOracle(db, db7 *storage.DB) (map[string]digest, error) {
	out := map[string]digest{}
	for _, f := range figures {
		d := db
		if f.noIndex {
			d = db7
		}
		rows, _, err := engine.New(d).Query(f.sql, engine.NI)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", f.name, err)
		}
		out[f.name] = digestRows(rows)
	}
	return out, nil
}

// analyticLoop is the closed loop with one caller: Engine.Query under
// Auto, back to back, until dur elapses.
func (b *bench) analyticLoop(a *analyticDBs, ops []op, oracle map[string]digest, dur time.Duration) ([]sample, time.Time) {
	start := time.Now()
	deadline := start.Add(dur)
	prev := start
	var out []sample
	for i := 0; time.Now().Before(deadline); i++ {
		o := ops[i%len(ops)]
		req, opID := b.nextReq(), b.rec.id()
		t0 := time.Now()
		rows, _, err := a.engine(o.fig).Query(o.sql, engine.Auto)
		t1 := time.Now()
		b.rec.leaf(opID, req, "engine.query", t0, t1)
		want, ok := oracle[o.key]
		b.check(o.key, digestRows(rows), err, want, ok)
		b.rec.add(opID, 0, req, "op."+o.key, t0, time.Now())
		// Engine.Query returns the whole result at once: the first row is
		// available when the call returns.
		out = append(out, sample{kind: opFigure, fig: o.fig, end: t1, lat: t1.Sub(t0), ttfr: t1.Sub(t0), delay: t0.Sub(prev), rows: int64(len(rows))})
		prev = t1
	}
	return out, start
}

// analyticWindow is the analytic workload's window, in ops: 50 cycles of
// the five figures, about 0.4 s — short enough for the steal filter to
// find clean stretches when the host is busy. Its tail is p95, with 12
// samples beyond it.
const analyticWindow = 250

func runAnalytic(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	ops := figureOps(rng, 1000)
	a, err := repeatSetup(b, setupReps, b.setupAnalytic, func(*analyticDBs) {})
	if err != nil {
		return err
	}
	oracle, err := figureOracle(a.db, a.db7)
	if err != nil {
		return err
	}
	if !b.traced {
		runtime.GC() // the set-ups' and the oracle's garbage is not the workload's
		peak, host := startPeak(10*time.Millisecond, heapObjects), startSteal(stealEvery)
		ss, start := b.analyticLoop(a, ops, oracle, b.seconds)
		host.end()
		peakMB, err := peak.end()
		if err != nil {
			return err
		}
		b.metric("peak_heap_mb", peakMB)
		b.reportWindows(ss, start, analyticWindow, host)
		for i, f := range figures {
			fig := i
			logf("%s p50 %.3f ms (Auto chose %s)", f.name, median(latMs(ss, func(s sample) bool { return s.fig == fig })), mustChosen(a.engine(i), f.sql))
		}
		return nil
	}

	var untraced []sample
	b.untraced(func() { untraced, _ = b.analyticLoop(a, ops, oracle, b.seconds*3/10) })
	before := localSnap()
	traced, _ := b.analyticLoop(a, ops, oracle, b.seconds*7/10)
	b.reportRegistry(localSnap().sub(before), len(traced))

	var specs []stmtSpec
	for i, f := range figures {
		specs = append(specs, stmtSpec{name: f.name, sql: f.sql, eng: a.engine(i)})
	}
	if err := b.pipelineProbe(specs, 11, tpcdLookup(a.eng)); err != nil {
		return err
	}
	if err := b.figureProbe(a.db, a.db7, 11); err != nil {
		return err
	}
	// The library path has no server; the serving probe puts the same
	// engine behind an in-process server to measure what the wire and
	// driver layers would add to these results.
	if err := b.inProcessServingProbe(a, oracle); err != nil {
		return err
	}
	return b.finishTraced(untraced, traced)
}

// tpcdLookup is the key lookup the engine-overhead pairs run on TPC-D.
func tpcdLookup(eng *engine.Engine) stmtSpec {
	return stmtSpec{name: "lookup", sql: pointSQL, params: toValues([]any{int64(1)}), eng: eng}
}

func mustChosen(eng *engine.Engine, sql string) string {
	p, err := eng.Prepare(sql, engine.Auto)
	if err != nil {
		return "error: " + err.Error()
	}
	return p.Chosen.String()
}

func (b *bench) inProcessServingProbe(a *analyticDBs, oracle map[string]digest) error {
	srv := server.New(server.Config{Engine: a.eng, Strategy: engine.Auto})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	db, err := openDB(ln.Addr().String(), 1)
	if err != nil {
		return err
	}
	defer db.Close()
	var stmts []servingStmt
	for _, f := range figures {
		if !f.noIndex { // the served engine holds the indexed database only
			stmts = append(stmts, servingStmt{sql: f.sql, want: oracle[f.name]})
		}
	}
	return b.servingProbe(context.Background(), ln.Addr().String(), db, stmts)
}
