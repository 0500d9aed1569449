package main

import (
	"fmt"
	"math/rand"
	"strings"

	"decorr/internal/tpcd"
)

// Dataset sizes. TPC-D at SF 0.1 is lineitem 60,000, partsupp 8,000,
// parts 2,000, customers 1,500, suppliers 100 (the paper's Table 1 scaled
// by a tenth). The stream table holds 200,000 employees: a stream is
// still bulk (about 160,000 rows, some 160 fetch batches), while the
// server's heap stays near 90 MB on a machine shared with other tenants;
// a million rows made each server hold ~500 MB, and its throughput swung
// with the host's load by more than the benchmark's bounds.
const (
	tpcdSF         = 0.1
	streamEmp      = 200000
	streamDepts    = 40
	streamBuilding = 6
	planCacheSize  = 256 // decorrd's default -plancache
	// dataSeed is the generators' seed: decorrd's default -seed, so the
	// served databases are exactly what decorrd builds by default. The
	// run's --seed draws the op sequence — order, literals, parameters —
	// over this one database, so seeds vary the traffic, not the data.
	dataSeed = 42
)

// figure is one of the paper's Figures 5–9: a query and whether it runs
// on the copy of the database without the ps_partkey index (Figure 7).
type figure struct {
	name    string
	sql     string
	noIndex bool
}

var figures = []figure{
	{"fig5", tpcd.Query1, false},
	{"fig6", tpcd.Query1b, false},
	{"fig7", tpcd.Query1b, true},
	{"fig8", tpcd.Query2, false},
	{"fig9", tpcd.Query3, false},
}

// Served-mix statements. pointSQL is the prepared lookup by key; q1Param
// is Query 1 with `?` for the nation (outer block and subquery) and the
// part size; q1Literal and q3Literal are the ad-hoc texts, Query 1 and
// Query 3 with their literals drawn from the generator's domains.
const pointSQL = `select c_name, c_acctbal, c_mktsegment, c_nation from customers where c_custkey = ?`

var (
	q1Param = strings.NewReplacer(
		"s.s_nation = 'FRANCE'", "s.s_nation = ?",
		"p.p_size = 15", "p.p_size = ?",
		"s1.s_nation = 'FRANCE'", "s1.s_nation = ?",
	).Replace(tpcd.Query1)
	q1Literal = strings.NewReplacer(
		"'FRANCE'", "'%[1]s'",
		"'BRASS'", "'%[2]s'",
		"p.p_size = 15", "p.p_size = %[3]d",
	).Replace(tpcd.Query1)
	q3Literal = strings.NewReplacer(
		"'BUILDING'", "'%[1]s'",
		"'AUTOMOBILE'", "'%[2]s'",
		"'EUROPE'", "'%[3]s'",
	).Replace(tpcd.Query3)
)

// streamSQL is the served-stream statement: a full scan streamed to the
// client, about four fifths of emp per execution.
const streamSQL = `select name, building from emp where building <> ?`

type opKind uint8

const (
	opPoint opKind = iota
	opQ1Param
	opAdhocQ1
	opAdhocQ3
	opStream
	opFigure
)

var opKindNames = [...]string{"point", "q1param", "adhoc-q1", "adhoc-q3", "stream", "figure"}

func (k opKind) String() string { return opKindNames[k] }

// op is one client operation. sql is the text sent (the literal text for
// ad-hoc ops, the prepared text otherwise); key names its expected result
// in the oracle, and ops with equal keys must return equal bags.
type op struct {
	kind   opKind
	sql    string
	params []any
	key    string
	fig    int // index into figures, for opFigure
}

var allNations = func() []string {
	var out []string
	for _, ns := range tpcd.Nations {
		out = append(out, ns...)
	}
	return out
}()

// q1Key is the oracle key of Query 1 under the given literals; the
// parameterized form with p_type BRASS shares it.
func q1Key(nation, metal string, size int) string {
	return fmt.Sprintf(q1Literal, nation, metal, size)
}

// mixBlock is the served-mix op shares per block of 50 ops: 70% prepared
// point lookups, 20% prepared parameterized Query 1, 10% ad-hoc texts
// (four in five Query 1, one in five Query 3). Every block holds exactly
// these counts in a seeded order, so every window of ops carries the
// same mix and seeds differ in order and literals only.
var mixBlock = []struct {
	kind opKind
	n    int
}{{opPoint, 35}, {opQ1Param, 10}, {opAdhocQ1, 4}, {opAdhocQ3, 1}}

// mixOps draws n served-mix operations in blocks of mixBlock. 25 nations
// × 5 metals × 50 sizes make 6,250 distinct ad-hoc Query 1 texts, about
// 24 times the plan cache, so ad-hoc ops mostly miss it.
func mixOps(rng *rand.Rand, n int) []op {
	sf := tpcdSF
	nCust := int(float64(tpcd.BaseCustomers)*sf + 0.5) // the generator's customer count
	var block []opKind
	for _, s := range mixBlock {
		for i := 0; i < s.n; i++ {
			block = append(block, s.kind)
		}
	}
	ops := make([]op, n)
	for i := range ops {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		switch block[i%len(block)] {
		case opPoint:
			k := int64(1 + rng.Intn(nCust))
			ops[i] = op{kind: opPoint, sql: pointSQL, params: []any{k}, key: fmt.Sprintf("point:%d", k)}
		case opQ1Param:
			nation, size := allNations[rng.Intn(len(allNations))], 1+rng.Intn(50)
			ops[i] = op{kind: opQ1Param, sql: q1Param, params: []any{nation, int64(size), nation},
				key: q1Key(nation, "BRASS", size)}
		case opAdhocQ1:
			text := q1Key(allNations[rng.Intn(len(allNations))], tpcd.Metals[rng.Intn(len(tpcd.Metals))], 1+rng.Intn(50))
			ops[i] = op{kind: opAdhocQ1, sql: text, key: text}
		case opAdhocQ3:
			a := rng.Intn(len(tpcd.Segments))
			b := (a + 1 + rng.Intn(len(tpcd.Segments)-1)) % len(tpcd.Segments)
			text := fmt.Sprintf(q3Literal, tpcd.Segments[a], tpcd.Segments[b], tpcd.Regions[rng.Intn(len(tpcd.Regions))])
			ops[i] = op{kind: opAdhocQ3, sql: text, key: text}
		}
	}
	return ops
}

// streamOps draws n stream executions. The excluded building is one the
// generator places employees in (EmpDeptSized leaves the last quarter of
// the buildings empty), so every stream carries about four fifths of emp.
func streamOps(rng *rand.Rand, n int) []op {
	occupied := streamBuilding - streamBuilding/4
	ops := make([]op, n)
	for i := range ops {
		b := fmt.Sprintf("B%d", rng.Intn(occupied))
		ops[i] = op{kind: opStream, sql: streamSQL, params: []any{b}, key: "stream:" + b}
	}
	return ops
}

// figureOps draws n analytic operations: the five figures in a fresh
// seeded order every cycle.
func figureOps(rng *rand.Rand, n int) []op {
	ops := make([]op, 0, n+len(figures))
	for len(ops) < n {
		for _, f := range rng.Perm(len(figures)) {
			ops = append(ops, op{kind: opFigure, sql: figures[f].sql, key: figures[f].name, fig: f})
		}
	}
	return ops[:n]
}
