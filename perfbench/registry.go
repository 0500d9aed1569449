package main

import (
	"context"
	"database/sql"
	"strings"

	"decorr/internal/trace"
)

// regSnap is a reading of the process-wide metrics registry of the
// process executing queries: counters, and histograms as (observations,
// sum of nanoseconds). The served workloads read decorrd's over the wire
// from sys.metrics and sys.histograms; the analytic workload reads its
// own in-process registry, which holds the same instruments.
type regSnap struct {
	counters map[string]int64
	hists    map[string][2]int64
}

func localSnap() regSnap {
	s := regSnap{counters: map[string]int64{}, hists: map[string][2]int64{}}
	for name, v := range trace.Metrics.Snapshot() {
		if !strings.Contains(name, ":") {
			s.counters[name] = v
		}
	}
	for _, nh := range trace.Metrics.Histograms() {
		s.hists[nh.Name] = [2]int64{nh.Hist.Count(), nh.Hist.Sum()}
	}
	return s
}

// remoteSnap reads decorrd's registry through two prepared statements
// (prepared once, so reading adds no parse or plan-cache traffic).
func remoteSnap(ctx context.Context, counters, hists *sql.Stmt) (regSnap, error) {
	s := regSnap{counters: map[string]int64{}, hists: map[string][2]int64{}}
	rows, err := counters.QueryContext(ctx)
	if err != nil {
		return s, err
	}
	for rows.Next() {
		var name string
		var v int64
		if err := rows.Scan(&name, &v); err != nil {
			rows.Close()
			return s, err
		}
		s.counters[name] = v
	}
	if err := rows.Close(); err != nil {
		return s, err
	}
	rows, err = hists.QueryContext(ctx)
	if err != nil {
		return s, err
	}
	for rows.Next() {
		var name string
		var n, sum int64
		if err := rows.Scan(&name, &n, &sum); err != nil {
			rows.Close()
			return s, err
		}
		s.hists[name] = [2]int64{n, sum}
	}
	return s, rows.Close()
}

const (
	remoteCountersSQL = `select name, value from sys.metrics where kind = 'counter'`
	remoteHistsSQL    = `select name, observations, sum_ns from sys.histograms`
)

// sub returns a − b entrywise.
func (a regSnap) sub(b regSnap) regSnap {
	out := regSnap{counters: map[string]int64{}, hists: map[string][2]int64{}}
	for k, v := range a.counters {
		out.counters[k] = v - b.counters[k]
	}
	for k, v := range a.hists {
		w := b.hists[k]
		out.hists[k] = [2]int64{v[0] - w[0], v[1] - w[1]}
	}
	return out
}

// meanUs is the mean observation, in microseconds, of the named
// histograms combined (0 when none were observed).
func (a regSnap) meanUs(names ...string) float64 {
	var n, sum int64
	for _, name := range names {
		n += a.hists[name][0]
		sum += a.hists[name][1]
	}
	if n <= 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// reportRegistry turns a window's registry delta into the plan-cache,
// stage and server per-layer metrics; ops is the number of operations
// the window completed.
func (b *bench) reportRegistry(d regSnap, ops int) {
	hits, misses := d.counters["plancache.hits"], d.counters["plancache.misses"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	b.metric("plancache.hit_ratio", ratio)
	b.metric("plancache.evictions_per_op", float64(d.counters["plancache.evictions"])/float64(max(ops, 1)))
	b.metric("plancache.get_us", d.meanUs("plancache.get.hit", "plancache.get.miss"))
	b.metric("stage.parse_us", d.meanUs("stage.parse"))
	b.metric("stage.rewrite_us", d.meanUs("stage.rewrite"))
	b.metric("stage.decorrelate_us", d.meanUs("stage.decorrelate"))
	b.metric("stage.exec_us", d.meanUs("stage.exec"))
	b.metric("server.sheds", float64(d.counters["server.sheds"]))
	b.metric("server.sessions_refused", float64(d.counters["server.sessions_refused"]))
	logf("registry window: %d ops, plancache hits %d misses %d evictions %d", ops, hits, misses, d.counters["plancache.evictions"])
}
