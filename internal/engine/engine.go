// Package engine is the facade tying the stack together: SQL text is
// parsed, bound to a QGM, rewritten according to the chosen decorrelation
// strategy, cleaned up, and executed. The benchmark harness and the public
// API both sit on top of this package.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decorr/internal/ast"
	"decorr/internal/classic"
	"decorr/internal/core"
	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/plancache"
	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/semant"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/trace"
)

// Strategy selects how (whether) a correlated query is decorrelated before
// execution — the five algorithms of the paper's §5.1 plus the memoized
// and runtime-batched nested-iteration baselines.
type Strategy int

const (
	// NI executes the query as written: correlated subqueries are invoked
	// per outer tuple (System R nested iteration).
	NI Strategy = iota
	// NIMemo is nested iteration with a per-binding result cache.
	NIMemo
	// Kim applies Kim's method [Kim82]. It faithfully reproduces the
	// historical COUNT bug.
	Kim
	// Dayal applies Dayal's method [Day87]: merge via left outer join,
	// group by a key of the outer relations.
	Dayal
	// GanskiWong applies the Ganski/Wong method [GW87], the single-table
	// special case of magic decorrelation.
	GanskiWong
	// Magic applies magic decorrelation (the paper's algorithm).
	Magic
	// OptMagic is magic decorrelation with the supplementary-table
	// common-subexpression elimination (OptMag in §5.1).
	OptMagic
	// Auto optimizes the query twice — once as written, once magic
	// decorrelated — estimates both plans, and keeps the cheaper (§7:
	// "The better of the two optimized plans is chosen"). When the NI
	// plan wins and still contains correlated subqueries, Auto executes
	// it with runtime batching (NIBatch) — the mid-point between full
	// nested iteration and full rewrite.
	Auto
	// NIBatch is nested iteration with runtime subquery batching: the
	// graph runs as bound (no rewrite), but correlated subqueries
	// evaluate set-at-a-time over the distinct outer bindings — once per
	// distinct binding in general, exactly once as a decorrelated
	// partition/probe when the correlation is root-level equalities only.
	// Rows, ordering, and typed errors are identical to NI; the fan-out
	// collapse shows up in Stats.BatchExecutions. Appended after Auto so
	// existing strategy fingerprints (plan-cache keys, wire codes) keep
	// their values.
	NIBatch
)

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case NI:
		return "NI"
	case NIMemo:
		return "NIMemo"
	case Kim:
		return "Kim"
	case Dayal:
		return "Dayal"
	case GanskiWong:
		return "GW"
	case Magic:
		return "Mag"
	case OptMagic:
		return "OptMag"
	case Auto:
		return "Auto"
	case NIBatch:
		return "NIBatch"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all strategies in presentation order.
var Strategies = []Strategy{NI, NIMemo, NIBatch, Kim, Dayal, GanskiWong, Magic, OptMagic, Auto}

// Engine prepares and runs queries against one database.
type Engine struct {
	DB *storage.DB
	// MaterializeCSE lets the executor cache shared uncorrelated boxes —
	// the optimizer improvement the paper wishes for in §5.3 (ablation
	// knob; Starburst recomputed).
	MaterializeCSE bool
	// CoreOpts tunes magic decorrelation (§4.4 knobs). The Order field is
	// always overridden with the executor's nested-iteration join order.
	CoreOpts core.Options
	// MagicSets additionally applies classical magic-sets rewriting
	// ([MFPR90], the paper's §7 sibling transformation): derived tables
	// equi-joined into a block are restricted to the distinct join
	// bindings before they aggregate.
	MagicSets bool
	// Workers bounds intra-query parallelism in the executor: 0 means
	// GOMAXPROCS, 1 forces single-threaded execution. Results are
	// bit-identical and identically ordered at every setting.
	Workers int
	// Limits are the per-query resource budgets (deadline, output and
	// intermediate row caps, tracked-byte cap) applied to every execution
	// through this engine. The zero value imposes nothing. Limits are
	// execution-time policy, never planning policy: they are read at each
	// run, are deliberately absent from the plan-cache key, and a plan
	// prepared under one deadline runs correctly under another.
	Limits exec.Limits
	// RowMode forces the row-at-a-time executor, disabling the vectorized
	// columnar engine even for plans it supports. Rows, statistics, and
	// errors are identical either way; the knob exists for benchmarking
	// the two engines against each other and for bisecting a suspected
	// vectorization bug. Like Limits it is execution-time policy, read at
	// each run and absent from the plan-cache key.
	RowMode bool
	// Tracer, when non-nil, threads span/event tracing through the whole
	// pipeline: parse, semant, every rewrite rule, decorrelation steps,
	// and per-box execution. Nil disables tracing at zero cost. Attaching
	// a tracer serializes execution (see exec.Options.Tracer).
	Tracer *trace.Tracer
	// CleanupFactory overrides the cleanup rewrite engine run before and
	// after the strategy rewrite; nil means rewrite.NewCleanup(). The
	// differential harness uses it to re-check strategies with individual
	// cleanup rules disabled.
	CleanupFactory func() *rewrite.Engine

	// viewMu guards views. The map is copy-on-write: DDL builds a fresh
	// map under the write lock and publishes it with one assignment, and a
	// published map is never mutated again, so a bind can keep using the
	// snapshot it took without holding any lock.
	viewMu sync.RWMutex
	views  semant.Views
	// epoch counts view DDL (CreateView/DropView). Cached plans record the
	// epoch they were prepared under and are discarded when it moves, which
	// is how the plan cache invalidates plans that inlined a stale view.
	epoch atomic.Uint64

	// planCache, when non-nil, memoizes Prepared plans across executions.
	// Set it via EnablePlanCache before the engine is shared: the knob
	// fields above are part of the cache key but are read unsynchronized,
	// so the configure-then-share contract of the other knobs applies.
	planCache *plancache.Cache

	// registry, when non-nil, tracks every execution: each run gets a
	// query ID, appears in Registry().Active() with live progress while it
	// runs, can be stopped with Kill, and lands in the query log when it
	// finishes. Set it via EnableRegistry or MountSystemCatalog before the
	// engine is shared (same contract as the knobs above). Nil disables
	// tracking at zero cost.
	registry *Registry
}

// New creates an engine with the paper's default knobs.
func New(db *storage.DB) *Engine {
	return &Engine{DB: db, CoreOpts: core.DefaultOptions(), views: semant.Views{}}
}

// Stage latency histograms, nanoseconds. Package-level so hot paths pay
// one atomic add per observation instead of a registry lookup. The
// per-strategy exec histograms live in a read-only map built once here.
var (
	histParse       = trace.Metrics.Histogram("stage.parse")
	histRewrite     = trace.Metrics.Histogram("stage.rewrite")
	histDecorrelate = trace.Metrics.Histogram("stage.decorrelate")
	histExec        = trace.Metrics.Histogram("stage.exec")
	strategyHists   = func() map[Strategy]*trace.Histogram {
		m := make(map[Strategy]*trace.Histogram, len(Strategies))
		for _, s := range Strategies {
			m[s] = trace.Metrics.Histogram("exec.strategy." + s.String())
		}
		return m
	}()
)

// parseQuery and parseStatement are the engine's only parser entry points;
// both count into engine.parses so redundant parsing is observable (tests
// pin one parse per cold statement and zero on a warm cache hit), and both
// record into the stage.parse latency histogram.
func parseQuery(sql string) (ast.QueryExpr, error) {
	trace.Metrics.Counter("engine.parses").Inc()
	start := time.Now()
	q, err := parser.Parse(sql)
	histParse.Observe(time.Since(start).Nanoseconds())
	return q, err
}

func parseStatement(sql string) (ast.Statement, error) {
	trace.Metrics.Counter("engine.parses").Inc()
	start := time.Now()
	stmt, err := parser.ParseStatement(sql)
	histParse.Observe(time.Since(start).Nanoseconds())
	return stmt, err
}

// viewsSnapshot returns the current view map. The returned map is
// immutable (see viewMu): callers may read it indefinitely without locks.
func (e *Engine) viewsSnapshot() semant.Views {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	return e.views
}

// Epoch reports the view-DDL epoch. It moves on every successful
// CreateView/DropView; plan-cache entries prepared under an older epoch
// are invalidated on their next lookup.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// CreateView registers a named view from a "CREATE VIEW name [(cols)] AS
// query" statement. Views are expanded at bind time (the paper's §2.1
// presents the decorrelated plan as exactly such a view stack).
func (e *Engine) CreateView(sql string) error {
	stmt, err := parseStatement(sql)
	if err != nil {
		return err
	}
	cv, ok := stmt.(*ast.CreateView)
	if !ok {
		return fmt.Errorf("engine: not a CREATE VIEW statement")
	}
	return e.createViewParsed(cv)
}

// createViewParsed installs an already-parsed view definition: validate
// against a copy of the view map, publish the copy, bump the epoch.
func (e *Engine) createViewParsed(cv *ast.CreateView) error {
	name := strings.ToLower(cv.Name)
	// The parser rejects qualified view names in SQL; this guards the
	// programmatic path too. Dotted names address system catalogs
	// (sys.*), and catalog resolution runs before view expansion, so a
	// dotted view would be silently unreachable at best.
	if strings.ContainsRune(name, '.') {
		return fmt.Errorf("engine: view name %q cannot be qualified: dotted names are reserved for system catalogs", name)
	}
	if e.DB.Catalog.Lookup(name) != nil {
		return fmt.Errorf("engine: view %q collides with a base table", name)
	}
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	next := make(semant.Views, len(e.views)+1)
	for k, v := range e.views {
		next[k] = v
	}
	next[name] = &semant.ViewDef{Cols: cv.Cols, Query: cv.Query}
	// Validate eagerly: the definition must bind (it may reference
	// earlier views but not itself), and it must not capture `?`
	// placeholders — a view is shared by statements with unrelated
	// parameter lists, so there is no sound position to bind them to.
	g, err := semant.BindWithViews(cv.Query, e.DB.Catalog, next)
	if err != nil {
		return err
	}
	if g.Params > 0 {
		return fmt.Errorf("engine: view %q must not contain ? parameters", name)
	}
	e.views = next
	e.epoch.Add(1)
	return nil
}

// DropView removes a view if present.
func (e *Engine) DropView(name string) {
	name = strings.ToLower(name)
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	if _, ok := e.views[name]; !ok {
		return
	}
	next := make(semant.Views, len(e.views))
	for k, v := range e.views {
		if k != name {
			next[k] = v
		}
	}
	e.views = next
	e.epoch.Add(1)
}

// Exec runs one statement: CREATE VIEW definitions return (nil, nil, nil);
// queries behave like Query. The statement is parsed exactly once, and not
// at all when the plan cache holds a plan for its text.
func (e *Engine) Exec(sql string, s Strategy) ([]storage.Row, *exec.Stats, error) {
	return e.ExecParamsContext(context.Background(), sql, s, nil)
}

// ExecContext is Exec under a cancellation context: the executor polls ctx
// at every morsel claim and box evaluation, so a cancellation or deadline
// surfaces as exec.ErrCanceled / exec.ErrDeadlineExceeded within one
// morsel of leaf work, at any worker count.
func (e *Engine) ExecContext(ctx context.Context, sql string, s Strategy) ([]storage.Row, *exec.Stats, error) {
	return e.ExecParamsContext(ctx, sql, s, nil)
}

// ExecParams is Exec with values for the statement's `?` placeholders, in
// text order. With the plan cache enabled, a repeat of a statement the
// cache still holds skips parsing, binding, and rewriting entirely — the
// text itself is the fast-path key — so a parameterized statement pays for
// preparation once across all its bindings.
func (e *Engine) ExecParams(sql string, s Strategy, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	return e.ExecParamsContext(context.Background(), sql, s, params)
}

// ExecParamsContext is ExecParams under a cancellation context.
func (e *Engine) ExecParamsContext(ctx context.Context, sql string, s Strategy, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	cached := e.cacheable()
	var (
		epoch  uint64
		rawKey string
	)
	if cached {
		epoch = e.epoch.Load()
		rawKey = e.cacheKey(trimStatement(sql), s)
		if v, ok := e.planCache.Get(rawKey, epoch); ok {
			return v.(*Prepared).RunParamsContext(ctx, params)
		}
	}
	sp := e.Tracer.Begin("parse", "engine")
	stmt, err := parseStatement(sql)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if cv, ok := stmt.(*ast.CreateView); ok {
		return nil, nil, e.createViewParsed(cv)
	}
	q, ok := stmt.(ast.QueryExpr)
	if !ok {
		return nil, nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	var p *Prepared
	if cached {
		p, err = e.prepareAndCache(rawKey, q, s, epoch)
	} else {
		p, err = e.prepareParsed(q, s, false)
	}
	if err != nil {
		return nil, nil, err
	}
	return p.RunParamsContext(ctx, params)
}

// Prepared is a parsed, rewritten, validated query ready to run.
type Prepared struct {
	Graph    *qgm.Graph
	Strategy Strategy
	Trace    *core.Trace
	Columns  []string
	// Chosen reports which alternative the Auto strategy selected
	// (NI or OptMagic); it equals Strategy otherwise.
	Chosen Strategy
	// EstimatedCost is the optimizer's abstract cost of the chosen plan.
	EstimatedCost float64
	// NumParams is the number of `?` placeholders the statement uses;
	// RunParams must be given exactly that many values.
	NumParams int
	// Text is the statement text the plan was prepared from (the original
	// SQL when available, the AST's normalized rendering otherwise). The
	// panic-isolation path attaches it to trace events so a recovered
	// operator panic identifies the offending query.
	Text   string
	engine *Engine
	// autoLoserCost is the estimated cost of the leg Auto did not choose
	// (NaN when decorrelation failed and NI was the only leg).
	autoLoserCost float64
}

// Prepare parses sql and applies the strategy's rewrite.
func (e *Engine) Prepare(sql string, s Strategy) (*Prepared, error) {
	return e.prepare(sql, nil, s, false)
}

// PrepareTraced is Prepare with rewrite tracing enabled (for Magic and
// OptMagic the trace holds the Figure 2–4 stage snapshots).
func (e *Engine) PrepareTraced(sql string, s Strategy) (*Prepared, error) {
	return e.prepare(sql, nil, s, true)
}

// prepareParsed prepares an already-parsed query (no parse stage, no parse
// span — used by Exec and the plan cache, which parse at most once).
func (e *Engine) prepareParsed(q ast.QueryExpr, s Strategy, traced bool) (*Prepared, error) {
	return e.prepare("", q, s, traced)
}

// prepare dispatches to the pipeline. Exactly one of sql/q is used: when q
// is nil, sql is parsed inside the prepare span (so traces show the full
// pipeline); otherwise the pre-parsed query is bound directly.
func (e *Engine) prepare(sql string, q ast.QueryExpr, s Strategy, traced bool) (*Prepared, error) {
	if s == Auto {
		return e.prepareAuto(sql, q, traced)
	}
	trace.Metrics.Counter("engine.prepares").Inc()
	prep := e.Tracer.Begin("prepare", "engine", trace.Str("strategy", s.String()))
	p, err := e.prepareStagesGuarded(sql, q, s, traced)
	if err != nil {
		trace.Metrics.Counter("engine.prepare_errors").Inc()
		prep.End(trace.Str("error", err.Error()))
		return nil, err
	}
	prep.End()
	return p, nil
}

// queryText picks the text identifying a statement in diagnostics: the
// original SQL when the caller supplied it, the AST's normalized rendering
// otherwise.
func queryText(sql string, q ast.QueryExpr) string {
	if sql != "" {
		return sql
	}
	if q != nil {
		return ast.FormatQuery(q)
	}
	return ""
}

// notePanic records one recovered panic: the engine.panics counter moves
// and, when tracing, an instant event captures the phase, the query text,
// the panic value, and the (truncated) operator stack.
func (e *Engine) notePanic(phase, text string, pe *exec.PanicError) {
	trace.Metrics.Counter("engine.panics").Inc()
	stack := pe.Stack
	const maxStack = 4 << 10
	if len(stack) > maxStack {
		stack = stack[:maxStack]
	}
	e.Tracer.Instant("panic", "engine",
		trace.Str("phase", phase),
		trace.Str("query", text),
		trace.Str("value", fmt.Sprint(pe.Val)),
		trace.Str("stack", string(stack)))
}

// prepareStagesGuarded isolates panics in the prepare pipeline: a rewrite
// or binder bug surfaces as a *exec.PanicError instead of killing the
// process, and the engine (views, plan cache, storage) stays usable.
func (e *Engine) prepareStagesGuarded(sql string, q ast.QueryExpr, s Strategy, traced bool) (p *Prepared, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &exec.PanicError{Val: r, Stack: debug.Stack()}
			e.notePanic("prepare", queryText(sql, q), pe)
			p, err = nil, pe
		}
	}()
	return e.prepareStages(sql, q, s, traced)
}

// prepareStages runs the pipeline stages under the prepare span.
func (e *Engine) prepareStages(sql string, q ast.QueryExpr, s Strategy, traced bool) (*Prepared, error) {
	if q == nil {
		sp := e.Tracer.Begin("parse", "prepare")
		var err error
		q, err = parseQuery(sql)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	sp := e.Tracer.Begin("semant", "prepare")
	g, err := semant.BindWithViews(q, e.DB.Catalog, e.viewsSnapshot())
	sp.End()
	if err != nil {
		return nil, err
	}
	p := &Prepared{Graph: g, Strategy: s, Text: queryText(sql, q), engine: e}
	if traced {
		p.Trace = &core.Trace{}
	}
	// Normalize before the strategy rewrite: the paper applied "all
	// Starburst query transformations that were unrelated to
	// decorrelation ... to all queries" (§5.1). Merging trivial wrapper
	// boxes here also lets the FEED stage see aggregate subqueries
	// directly instead of through projection shells.
	if err := e.cleanup(g, "cleanup-pre"); err != nil {
		return nil, err
	}
	decorStart := time.Now()
	switch s {
	case NI, NIMemo, NIBatch:
		// Nested iteration runs the graph as bound; NIMemo and NIBatch
		// differ only in executor options.
	case Kim:
		if err := classic.ApplyKim(g); err != nil {
			return nil, err
		}
	case Dayal:
		if err := classic.ApplyDayal(g); err != nil {
			return nil, err
		}
	case GanskiWong:
		if err := classic.ApplyGanskiWong(g, e.orderer()); err != nil {
			return nil, err
		}
	case Magic, OptMagic:
		opts := e.CoreOpts
		opts.EliminateSupplementary = s == OptMagic
		opts.Order = e.orderer()
		opts.Tracer = e.Tracer
		sp = e.Tracer.Begin("decorrelate", "prepare", trace.Str("strategy", s.String()))
		err := core.Decorrelate(g, opts, p.Trace)
		sp.End()
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("engine: unknown strategy %v", s)
	}
	if s != NI && s != NIMemo && s != NIBatch {
		// stage.decorrelate covers every strategy rewrite (classic methods
		// included); the nested-iteration family does no rewrite and would
		// only pollute the low buckets.
		histDecorrelate.Observe(time.Since(decorStart).Nanoseconds())
	}
	if err := e.cleanup(g, "cleanup-post"); err != nil {
		return nil, err
	}
	if e.MagicSets {
		if err := core.ApplyMagicSets(g, e.orderer()); err != nil {
			return nil, err
		}
		if err := e.cleanup(g, "cleanup-magicsets"); err != nil {
			return nil, err
		}
	}
	if err := qgm.Validate(g); err != nil {
		return nil, fmt.Errorf("engine: %s rewrite produced an invalid graph: %w", s, err)
	}
	p.Columns = g.Root.OutNames()
	p.Chosen = s
	p.NumParams = g.Params
	sp = e.Tracer.Begin("plan-cost", "prepare")
	p.EstimatedCost = exec.New(e.DB, exec.Options{MaterializeCSE: e.MaterializeCSE}).EstimateCost(g)
	sp.End()
	return p, nil
}

// cleanup runs the cleanup rule set under a named span; wall time records
// into the stage.rewrite histogram (all cleanup passes share it).
func (e *Engine) cleanup(g *qgm.Graph, stage string) error {
	sp := e.Tracer.Begin(stage, "rewrite")
	re := rewrite.NewCleanup()
	if e.CleanupFactory != nil {
		re = e.CleanupFactory()
	}
	start := time.Now()
	err := re.WithTracer(e.Tracer).Run(g)
	histRewrite.Observe(time.Since(start).Nanoseconds())
	sp.End()
	return err
}

// prepareAuto implements §7's plan choice: prepare the query as written
// (nested iteration) and magic decorrelated, estimate both, keep the
// cheaper plan. The query is parsed once and bound twice (the binder
// never mutates the AST).
func (e *Engine) prepareAuto(sql string, q ast.QueryExpr, traced bool) (*Prepared, error) {
	if q == nil {
		sp := e.Tracer.Begin("parse", "engine")
		var err error
		q, err = parseQuery(sql)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	ni, err := e.prepare("", q, NI, false)
	if err != nil {
		return nil, err
	}
	mag, err := e.prepare("", q, OptMagic, traced)
	if err != nil {
		// A non-converging rewrite rule set is an engine bug, not a query
		// the strategy merely cannot handle: surface it instead of
		// silently executing the NI plan.
		if errors.Is(err, rewrite.ErrNoFixpoint) {
			return nil, err
		}
		// Decorrelation failing is not fatal for Auto; fall back to NI.
		ni.Strategy = Auto
		ni.autoLoserCost = math.NaN()
		autoBatchNI(ni)
		return ni, nil
	}
	best, loser := ni, mag
	if mag.EstimatedCost < ni.EstimatedCost {
		best, loser = mag, ni
	}
	best.Strategy = Auto
	best.autoLoserCost = loser.EstimatedCost
	if best == ni {
		autoBatchNI(best)
	}
	return best, nil
}

// autoBatchNI upgrades an Auto-selected NI plan to runtime batching when
// the graph still contains sibling-correlated subqueries — the mid-point
// between full nested iteration and full rewrite. The batched executor
// produces bit-identical rows and falls back to plain per-tuple NI for
// shapes it cannot serve, so the upgrade never changes results; it only
// collapses the per-outer-row fan-out the cost model picked NI despite.
func autoBatchNI(p *Prepared) {
	if hasBatchableCorrelation(p.Graph) {
		p.Chosen = NIBatch
	}
}

// hasBatchableCorrelation reports whether any scalar/existential/universal
// quantifier's input is correlated to sibling quantifiers of its own box —
// exactly the executor's nested-iteration fan-out condition (laterals
// excluded: their evaluation is order-sensitive and never batched).
func hasBatchableCorrelation(g *qgm.Graph) bool {
	for _, b := range qgm.Boxes(g.Root) {
		for _, q := range b.Quants {
			if q.Kind == qgm.QForEach {
				continue
			}
			for _, r := range qgm.FreeRefs(q.Input) {
				if r.Q.Owner == q.Owner && !r.Q.Kind.IsSubquery() {
					return true
				}
			}
		}
	}
	return false
}

// orderer exposes the executor's static nested-iteration join order to the
// rewrites (§7: the decorrelation uses the NI join order).
func (e *Engine) orderer() core.Orderer {
	ex := exec.New(e.DB, exec.Options{})
	return ex.JoinOrder
}

// Run executes the prepared query, returning rows and work counters. It
// is RunParams with no parameter values; a statement containing `?`
// placeholders must go through RunParams.
func (p *Prepared) Run() ([]storage.Row, *exec.Stats, error) {
	return p.RunParams(nil)
}

// RunParams executes the prepared query with params bound to the `?`
// placeholders in statement text order. A *Prepared is safe for
// concurrent RunParams calls: every call builds its own executor, the
// graph is read-only during execution, and parameter values live in the
// per-call executor — which is what lets the plan cache hand one plan to
// many clients.
func (p *Prepared) RunParams(params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	return p.RunParamsContext(context.Background(), params)
}

// RunParamsContext is RunParams under a cancellation context and the
// engine's Limits (read per call — a cached plan never captures either).
// It is also the engine's execution-side panic boundary: a panic on the
// caller's stack is recovered here, worker-goroutine panics arrive already
// converted by the scheduler, and both are counted and traced before the
// typed *exec.PanicError is returned — the engine stays usable.
func (p *Prepared) RunParamsContext(ctx context.Context, params []sqltypes.Value) (rows []storage.Row, stats *exec.Stats, err error) {
	if len(params) != p.NumParams {
		return nil, nil, fmt.Errorf("engine: statement has %d parameter(s), got %d value(s)",
			p.NumParams, len(params))
	}
	trace.Metrics.Counter("engine.executions").Inc()
	// Registry tracking: give the run its own cancel function (which is
	// what Kill invokes — the governor's ordinary cancellation path) and
	// log it on the way out. This defer is declared BEFORE the recover
	// defer below on purpose: defers run LIFO, so the recover has already
	// converted any panic into the named err by the time the run is logged.
	var aq *activeQuery
	if reg := p.engine.registry; reg != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		aq = reg.begin(p.Text, p.Chosen, cancel)
		defer func() {
			reg.finish(aq, len(rows), err)
			cancel()
		}()
	}
	execStart := time.Now()
	defer func() {
		d := time.Since(execStart).Nanoseconds()
		histExec.Observe(d)
		if h := strategyHists[p.Chosen]; h != nil {
			h.Observe(d)
		}
	}()
	sp := p.engine.Tracer.Begin("execute", "engine", trace.Str("strategy", p.Strategy.String()))
	defer func() {
		if r := recover(); r != nil {
			pe := &exec.PanicError{Val: r, Stack: debug.Stack()}
			p.engine.notePanic("execute", p.Text, pe)
			trace.Metrics.Counter("engine.execution_errors").Inc()
			sp.End(trace.Str("error", pe.Error()))
			rows, stats, err = nil, nil, pe
		}
	}()
	ex := exec.New(p.engine.DB, p.execOptions(ctx, params, p.engine.Workers, p.engine.Limits))
	if aq != nil {
		// Publish the live counters: workers bump them atomically, so
		// Active() can watch rows scanned/joined/grouped grow mid-run.
		aq.stats.Store(&ex.Stats)
	}
	rows, err = ex.Run(p.Graph)
	if err != nil {
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			// A worker-goroutine panic the scheduler already converted:
			// count and trace it at the same boundary as caller-stack ones.
			p.engine.notePanic("execute", p.Text, pe)
		}
		trace.Metrics.Counter("engine.execution_errors").Inc()
		sp.End(trace.Str("error", err.Error()))
		return nil, nil, err
	}
	sp.End(trace.Int("rows", int64(len(rows))))
	return rows, &ex.Stats, nil
}

// execOptions is the one place a prepared plan's executor options are
// spelled out: the engine's knobs and the chosen strategy's executor mode,
// plus the per-call context, parameter values, worker count and limits.
func (p *Prepared) execOptions(ctx context.Context, params []sqltypes.Value, workers int, limits exec.Limits) exec.Options {
	return exec.Options{
		MaterializeCSE:    p.engine.MaterializeCSE,
		MemoizeCorrelated: p.Chosen == NIMemo,
		BatchCorrelated:   p.Chosen == NIBatch,
		Workers:           workers,
		Tracer:            p.engine.Tracer,
		Params:            params,
		Ctx:               ctx,
		Limits:            limits,
		DisableColumnar:   p.engine.RowMode,
	}
}

// Explain renders the rewritten plan. Under Auto a header line first
// records the §7 decision: the chosen leg, both legs' estimated costs,
// and whether the NI winner was upgraded to runtime batching.
func (p *Prepared) Explain() string {
	if p.Strategy != Auto {
		return qgm.Format(p.Graph)
	}
	niCost, magCost := p.EstimatedCost, p.autoLoserCost
	if p.Chosen == OptMagic {
		niCost, magCost = magCost, niCost
	}
	leg := p.Chosen.String()
	if p.Chosen == NIBatch {
		leg += " (NI winner upgraded to runtime batching)"
	}
	mag := "n/a"
	if !math.IsNaN(magCost) {
		mag = fmt.Sprintf("%.0f", magCost)
	}
	return fmt.Sprintf("Auto: chose %s; estimated cost NI=%.0f %s=%s\n%s",
		leg, niCost, OptMagic, mag, qgm.Format(p.Graph))
}

// ExplainAnalyze runs the query with per-box profiling and renders the
// plan annotated with actual evaluation counts and row counts. Correlated
// boxes show one evaluation per binding (nested iteration made visible);
// shared uncorrelated boxes show the §5.1 recomputation behavior.
func (p *Prepared) ExplainAnalyze() (string, error) {
	return p.ExplainAnalyzeContext(context.Background())
}

// ExplainAnalyzeContext is ExplainAnalyze under a cancellation context and
// the engine's Limits, with the same panic boundary as RunParamsContext.
func (p *Prepared) ExplainAnalyzeContext(ctx context.Context) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &exec.PanicError{Val: r, Stack: debug.Stack()}
			p.engine.notePanic("explain-analyze", p.Text, pe)
			out, err = "", pe
		}
	}()
	ex := exec.New(p.engine.DB, p.execOptions(ctx, nil, p.engine.Workers, p.engine.Limits))
	ex.EnableProfiling()
	sp := p.engine.Tracer.Begin("explain-analyze", "engine", trace.Str("strategy", p.Strategy.String()))
	_, runErr := ex.Run(p.Graph)
	sp.End()
	if runErr != nil {
		var pe *exec.PanicError
		if errors.As(runErr, &pe) {
			p.engine.notePanic("explain-analyze", p.Text, pe)
		}
		return "", runErr
	}
	return ex.FormatProfile(p.Graph), nil
}

// Query is the one-shot convenience: prepare (through the plan cache when
// one is enabled) and run.
func (e *Engine) Query(sql string, s Strategy) ([]storage.Row, *exec.Stats, error) {
	return e.QueryParamsContext(context.Background(), sql, s, nil)
}

// QueryContext is Query under a cancellation context (see ExecContext).
func (e *Engine) QueryContext(ctx context.Context, sql string, s Strategy) ([]storage.Row, *exec.Stats, error) {
	return e.QueryParamsContext(ctx, sql, s, nil)
}

// QueryParams is Query with values for the statement's `?` placeholders.
func (e *Engine) QueryParams(sql string, s Strategy, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	return e.QueryParamsContext(context.Background(), sql, s, params)
}

// QueryParamsContext is QueryParams under a cancellation context.
func (e *Engine) QueryParamsContext(ctx context.Context, sql string, s Strategy, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	p, err := e.PrepareCached(sql, s)
	if err != nil {
		return nil, nil, err
	}
	return p.RunParamsContext(ctx, params)
}

// EnableRegistry attaches a query registry with a completed-query ring of
// about logCap entries (non-positive selects DefaultQueryLogCap). Call it
// before the engine is shared, like the other knob fields. Enabling the
// registry wraps every run in a cancelable context, so even runs whose
// caller passed context.Background() become killable (and governed by a
// governor checkpoint at every morsel claim and box evaluation).
func (e *Engine) EnableRegistry(logCap int) {
	e.registry = newRegistry(logCap)
}

// Registry exposes the attached query registry (nil when disabled).
func (e *Engine) Registry() *Registry { return e.registry }

// Kill cancels the identified running query (see Registry.Kill). Without
// an enabled registry it reports false.
func (e *Engine) Kill(id int64) bool {
	if e.registry == nil {
		return false
	}
	return e.registry.Kill(id)
}

// EnablePlanCache attaches a prepared-plan cache holding about capacity
// plans (non-positive selects the default). Call it before the engine is
// shared by concurrent clients, like the other knob fields.
func (e *Engine) EnablePlanCache(capacity int) {
	e.planCache = plancache.New(capacity)
}

// DisablePlanCache detaches the plan cache.
func (e *Engine) DisablePlanCache() { e.planCache = nil }

// PlanCache exposes the attached cache (nil when disabled) for stats and
// purging.
func (e *Engine) PlanCache() *plancache.Cache { return e.planCache }

// cacheable reports whether prepared plans may be served from the cache.
// A tracer opts out — the tracing contract is that every traced statement
// shows the whole pipeline, which a cache hit would elide — and so does a
// cleanup override, which changes what prepare would produce without
// being representable in the key.
func (e *Engine) cacheable() bool {
	return e.planCache != nil && e.Tracer == nil && e.CleanupFactory == nil
}

// trimStatement canonicalizes raw statement text for the fast-path cache
// key: surrounding whitespace and a trailing semicolon never change the
// parse, so "q", "q;" and "  q" share one plan without parsing.
func trimStatement(sql string) string {
	t := strings.TrimSpace(sql)
	t = strings.TrimSuffix(t, ";")
	return strings.TrimSpace(t)
}

// cacheKey folds every knob that changes the produced plan in ahead of
// the statement text. The func-valued options (CoreOpts.Order, Tracer,
// CleanupFactory) are deliberately absent: Order is always overridden by
// the engine, and the other two disable caching entirely (see cacheable).
func (e *Engine) cacheKey(text string, s Strategy) string {
	o := e.CoreOpts
	return fmt.Sprintf("s=%d de=%t oj=%t es=%t ms=%t cse=%t|%s",
		int(s), o.DecorrelateExistential, o.UseOuterJoin, o.EliminateSupplementary,
		e.MagicSets, e.MaterializeCSE, text)
}

// PrepareCached returns a plan for sql, serving it from the plan cache
// when possible and preparing (and caching) it otherwise. Plans are
// cached under two spellings: the trimmed raw text — so a repeated
// statement skips the parser — and the normalized text the parser's AST
// prints back to, so trivially reformatted statements share one plan.
// Without an enabled cache it falls back to a plain Prepare.
func (e *Engine) PrepareCached(sql string, s Strategy) (*Prepared, error) {
	if !e.cacheable() {
		return e.Prepare(sql, s)
	}
	// The epoch is loaded before parsing/binding: if DDL lands in between,
	// the plan is stored under the older epoch and discarded on its next
	// lookup — stale plans are never served, only over-invalidated.
	epoch := e.epoch.Load()
	rawKey := e.cacheKey(trimStatement(sql), s)
	if v, ok := e.planCache.Get(rawKey, epoch); ok {
		return v.(*Prepared), nil
	}
	q, err := parseQuery(sql)
	if err != nil {
		return nil, err
	}
	return e.prepareAndCache(rawKey, q, s, epoch)
}

// prepareAndCache finishes a cache miss: check the normalized-text key
// (another spelling of the same query may already be cached), prepare on
// a true miss, and store the plan under both keys.
func (e *Engine) prepareAndCache(rawKey string, q ast.QueryExpr, s Strategy, epoch uint64) (*Prepared, error) {
	normKey := e.cacheKey(ast.FormatQuery(q), s)
	if normKey != rawKey {
		if v, ok := e.planCache.Get(normKey, epoch); ok {
			p := v.(*Prepared)
			e.planCache.Put(rawKey, epoch, p)
			return p, nil
		}
	}
	p, err := e.prepareParsed(q, s, false)
	if err != nil {
		return nil, err
	}
	e.planCache.Put(normKey, epoch, p)
	if rawKey != normKey {
		e.planCache.Put(rawKey, epoch, p)
	}
	return p, nil
}
