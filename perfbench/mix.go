package main

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"decorr/internal/engine"
	"decorr/internal/storage"
)

const (
	// mixConns is the load connection count, sized for two cores.
	mixConns = 2
	// mixRate is the fixed-rate phase's arrival rate, ops/s: about half
	// the rate at which the open loop starts to queue on two connections.
	mixRate = 600.0
	// mixLimitMs is the latency limit: p99 from due time at mixRate.
	mixLimitMs = 25.0
	// mixWindow is the window size, in ops: enough for a p99 with ten
	// samples beyond it.
	mixWindow = 1000
	// An untraced run opens with mixFixedOps ops at the fixed rate (two
	// windows for the latency limit) and spends the rest of its time in
	// the closed loop the end-to-end metrics come from.
	mixFixedOps = 2 * mixWindow
	// mixClientProcs caps the load generator's Go scheduler: its two
	// connections do little client work per op, and more processors
	// would only contend with decorrd for the two cores.
	mixClientProcs = 1
)

// servedEnv is a running decorrd with a served workload's connections:
// the load clients, a raw protocol connection polling Status for the
// heap, and a one-connection pool for registry reads and the serving
// probe.
type servedEnv struct {
	d       *decorrd
	db      *sql.DB
	clients []*client
	mon     *wireClient
	side    *sql.DB
}

func (m *servedEnv) close() {
	for _, c := range m.clients {
		c.close()
	}
	if m.db != nil {
		m.db.Close()
	}
	if m.side != nil {
		m.side.Close()
	}
	if m.mon != nil {
		m.mon.Close()
	}
	m.d.stop()
}

// startServed starts decorrd with args and opens conns load clients
// holding the prepared statements, the Status monitor, and the side pool.
func (b *bench) startServed(ctx context.Context, conns int, prepared []string, args ...string) (*servedEnv, error) {
	d, err := b.startDecorrd(args...)
	if err != nil {
		return nil, err
	}
	m := &servedEnv{d: d}
	if m.db, err = openDB(d.addr, conns); err == nil {
		for i := 0; i < conns && err == nil; i++ {
			var c *client
			if c, err = newClient(ctx, m.db, prepared...); err == nil {
				m.clients = append(m.clients, c)
			}
		}
	}
	if err == nil {
		m.mon, err = dialWire(d.addr)
	}
	if err == nil {
		m.side, err = openDB(d.addr, 1)
	}
	if err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// warm runs ops round-robin over the clients. Its results are checked
// and tallied like timed ops.
func (m *servedEnv) warm(ctx context.Context, b *bench, ops []op, oracle map[string]digest) {
	for i, o := range ops {
		d, _, err := m.clients[i%len(m.clients)].do(ctx, b, o, 0, 0)
		want, ok := oracle[o.key]
		b.check("warm-up "+o.kind.String()+" "+o.sql, d, err, want, ok)
	}
}

// snapshotter reads decorrd's registry through statements prepared once.
type snapshotter struct{ counters, hists *sql.Stmt }

func newSnapshotter(ctx context.Context, db *sql.DB) (*snapshotter, error) {
	c, err := db.PrepareContext(ctx, remoteCountersSQL)
	if err != nil {
		return nil, err
	}
	h, err := db.PrepareContext(ctx, remoteHistsSQL)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &snapshotter{c, h}, nil
}

func (s *snapshotter) close() {
	s.counters.Close()
	s.hists.Close()
}

// window measures a phase's registry delta: it reads the registry twice
// before the phase and once after, and subtracts the cost of one read
// (the reads are queries too) from the phase's delta.
func (s *snapshotter) window(ctx context.Context, phase func()) (regSnap, error) {
	s0, err := remoteSnap(ctx, s.counters, s.hists)
	if err != nil {
		return regSnap{}, err
	}
	s1, err := remoteSnap(ctx, s.counters, s.hists)
	if err != nil {
		return regSnap{}, err
	}
	phase()
	s2, err := remoteSnap(ctx, s.counters, s.hists)
	if err != nil {
		return regSnap{}, err
	}
	return s2.sub(s1).sub(s1.sub(s0)), nil
}

// computeOracle computes, under NI on an in-process copy of the served
// database, the expected result of every distinct op key in lists: the
// correctness gate every timed op is checked against.
func computeOracle(db *storage.DB, lists ...[]op) (map[string]digest, error) {
	eng := engine.New(db)
	out := map[string]digest{}
	for _, ops := range lists {
		for _, o := range ops {
			if _, ok := out[o.key]; ok {
				continue
			}
			var rows []storage.Row
			var err error
			switch o.kind {
			case opPoint, opStream:
				rows, _, err = eng.QueryParams(o.sql, engine.NI, toValues(o.params))
			default: // the key is the literal text
				rows, _, err = eng.Query(o.key, engine.NI)
			}
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", o.kind, err)
			}
			out[o.key] = digestRows(rows)
		}
	}
	return out, nil
}

func runServedMix(b *bench) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed))
	// Untraced: a fixed-rate phase, then the saturation phase. Traced: the
	// fixed-rate phase twice, untraced (30% of the time) then traced (70%).
	// Set-up warms every statement kind with one block of ops: enough to
	// fill the plan cache and the storage caches, and few enough that
	// set-up time is not another latency measurement.
	warm := mixOps(rng, 50)
	var open1, open2, sat []op
	if b.traced {
		open1 = mixOps(rng, int(mixRate*b.seconds.Seconds()*3/10))
		open2 = mixOps(rng, int(mixRate*b.seconds.Seconds()*7/10))
	} else {
		open1 = mixOps(rng, mixFixedOps)
		sat = mixOps(rng, 20000) // cycled when the saturation phase outruns it
	}
	db := b.generate(genTPCD)
	oracle, err := computeOracle(db, warm, open1, open2, sat)
	if err != nil {
		return err
	}
	logf("oracle: %d distinct op results", len(oracle))
	if b.traced {
		if err := b.mixLibraryProbes(db, warm); err != nil {
			return err
		}
	}
	// From here on this process is only the load generator.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(mixClientProcs))
	args := []string{"-dataset", "tpcd", "-sf", fmt.Sprint(tpcdSF)}
	m, err := repeatSetup(b, setupReps, func() (*servedEnv, error) {
		m, err := b.startServed(ctx, mixConns, []string{pointSQL, q1Param}, args...)
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
		peak := startPeak(50*time.Millisecond, m.mon.heap)
		runStart := time.Now()
		fixed := b.openLoop(ctx, m.clients, open1, oracle, mixRate)
		host := startSteal(stealEvery)
		closed, start := b.closedLoop(ctx, m.clients, sat, oracle, max(b.seconds-time.Since(runStart), time.Second))
		host.end()
		peakMB, err := peak.end()
		if err != nil {
			return err
		}
		// The end-to-end metrics come from the closed loop: there
		// every op is timed from its send on a busy machine. The open-loop
		// latency, timed from due times, also charges the host's wake-up
		// delays for idle virtual CPUs, which swung with other tenants'
		// load far beyond the benchmark's bounds; it is checked against
		// the latency limit and logged.
		b.reportWindows(closed, start, mixWindow, host)
		b.metric("peak_heap_mb", peakMB)
		var p99s []float64
		for _, w := range windows(fixed, mixWindow, byDue) {
			_, v, _ := tail(latMs(w, nil))
			p99s = append(p99s, v)
		}
		logf("fixed rate %.0f/s from due time: p50 %.3f ms, p99 per window %s (limit %.0f ms: met=%t); generator send delay p99 %.3f ms",
			mixRate, median(latMs(fixed, nil)), fmtFloats(p99s), mixLimitMs, median(p99s) <= mixLimitMs, sendDelayP99(fixed))
		for k := opPoint; k <= opAdhocQ3; k++ {
			kind := k
			logf("  %-9s p50 %.3f ms at the fixed rate", k, median(latMs(fixed, func(s sample) bool { return s.kind == kind })))
		}
		logf("adhoc (plan-cache miss) p50 %.3f ms at the fixed rate", median(latMs(fixed, func(s sample) bool { return s.adhoc() })))
		logf("saturation: %d ops on %d connections", len(closed), mixConns)
		return nil
	}

	var untraced []sample
	b.untraced(func() { untraced = b.openLoop(ctx, m.clients, open1, oracle, mixRate) })
	snap, err := newSnapshotter(ctx, m.side)
	if err != nil {
		return err
	}
	defer snap.close()
	var traced []sample
	delta, err := snap.window(ctx, func() { traced = b.openLoop(ctx, m.clients, open2, oracle, mixRate) })
	if err != nil {
		return err
	}
	b.reportRegistry(delta, len(traced))
	var stmts []servingStmt
	for _, o := range pickKinds(warm, 2, opPoint, opQ1Param, opAdhocQ1, opAdhocQ3) {
		stmts = append(stmts, servingStmt{sql: o.sql, params: o.params, want: oracle[o.key]})
	}
	if err := b.servingProbe(ctx, m.d.addr, m.side, stmts); err != nil {
		return err
	}
	return b.finishTraced(untraced, traced)
}

func (s sample) adhoc() bool { return s.kind == opAdhocQ1 || s.kind == opAdhocQ3 }

// pickKinds returns up to n ops of each kind, in list order.
func pickKinds(ops []op, n int, kinds ...opKind) []op {
	var out []op
	for _, k := range kinds {
		got := 0
		for _, o := range ops {
			if o.kind == k && got < n {
				out = append(out, o)
				got++
			}
		}
	}
	return out
}

// mixLibraryProbes runs the in-process probes of a traced served-mix run:
// the staged pipeline over one statement of each op kind, and the figure
// probe over this seed's TPC-D database.
func (b *bench) mixLibraryProbes(db *storage.DB, ops []op) error {
	eng := engine.New(db)
	eng.EnablePlanCache(planCacheSize)
	var specs []stmtSpec
	for _, o := range pickKinds(ops, 1, opPoint, opQ1Param, opAdhocQ1, opAdhocQ3) {
		specs = append(specs, stmtSpec{name: o.kind.String(), sql: o.sql, params: toValues(o.params), eng: eng})
	}
	if err := b.pipelineProbe(specs, 11, tpcdLookup(eng)); err != nil {
		return err
	}
	db7, err := genTPCDNoIndex()
	if err != nil {
		return err
	}
	return b.figureProbe(db, db7, 11)
}
