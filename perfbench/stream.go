package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"decorr/internal/engine"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// streamWindow is the served-stream window, in streams: a stream lasts
// about 0.2 s, so a window spans about two seconds.
const streamWindow = 10

func runServedStream(b *bench) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed))
	warm := streamOps(rng, 1)
	ops := streamOps(rng, 1000)
	db := b.generate(func() *storage.DB {
		return tpcd.EmpDeptSized(streamDepts, streamEmp, streamBuilding, dataSeed)
	})
	oracle, err := computeOracle(db, warm, ops)
	if err != nil {
		return err
	}
	if b.traced {
		eng := engine.New(db)
		eng.EnablePlanCache(planCacheSize)
		o := ops[0]
		lookup := stmtSpec{name: "lookup", sql: `select name, budget from dept where name = ?`,
			params: toValues([]any{"dept-0"}), eng: eng}
		if err := b.pipelineProbe([]stmtSpec{{name: "stream", sql: o.sql, params: toValues(o.params), eng: eng}}, 3, lookup); err != nil {
			return err
		}
		db7, err := genTPCDNoIndex()
		if err != nil {
			return err
		}
		if err := b.figureProbe(genTPCD(), db7, 11); err != nil {
			return err
		}
	}
	// The server builds its own copy of the table: return ours (no longer
	// referenced) to the OS before starting it.
	debug.FreeOSMemory()

	args := []string{"-dataset", "empdept", "-emp", fmt.Sprint(streamEmp)}
	m, err := repeatSetup(b, setupReps, func() (*servedEnv, error) {
		m, err := b.startServed(ctx, 1, []string{streamSQL}, args...)
		if err == nil {
			m.warm(ctx, b, warm, oracle)
		}
		return m, err
	}, (*servedEnv).close)
	if err != nil {
		return err
	}
	defer m.close()

	if !b.traced {
		peak, host := startPeak(50*time.Millisecond, m.mon.heap), startSteal(stealEvery)
		ss, start := b.closedLoop(ctx, m.clients, ops, oracle, b.seconds)
		host.end()
		peakMB, err := peak.end()
		if err != nil {
			return err
		}
		rates := make([]float64, len(ss))
		for i, s := range ss {
			rates[i] = float64(s.rows) / s.lat.Seconds()
		}
		b.reportWindows(ss, start, streamWindow, host)
		b.metric("peak_heap_mb", peakMB)
		logf("streams: %d in %.2f s; rows/s per stream %s", len(ss), time.Since(start).Seconds(), fmtFloats(rates))
		return nil
	}

	var untraced []sample
	b.untraced(func() { untraced, _ = b.closedLoop(ctx, m.clients, ops, oracle, b.seconds*3/10) })
	snap, err := newSnapshotter(ctx, m.side)
	if err != nil {
		return err
	}
	defer snap.close()
	var traced []sample
	delta, err := snap.window(ctx, func() { traced, _ = b.closedLoop(ctx, m.clients, ops, oracle, b.seconds*7/10) })
	if err != nil {
		return err
	}
	b.reportRegistry(delta, len(traced))
	o := ops[0]
	if err := b.servingProbe(ctx, m.d.addr, m.side, []servingStmt{{sql: o.sql, params: o.params, want: oracle[o.key]}}); err != nil {
		return err
	}
	return b.finishTraced(untraced, traced)
}
