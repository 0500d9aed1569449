package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail may be reported at, in permille,
// highest first. A tail lies above the median, so p50 is not on it.
var tailLadder = []int{999, 990, 950, 900, 750}

// tail applies the reporting rule for a latency tail: the highest ladder
// percentile that leaves at least ten samples beyond it (nearest-rank), so
// a tail is never read off fewer than ten observations. With fewer than
// forty samples no percentile qualifies and the maximum is reported, as
// permille 1000. n is the sample count the percentile was read from.
func tail(xs []float64) (permille int, value float64, n int) {
	n = len(xs)
	if n == 0 {
		return 1000, 0, 0
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		rank := (p*n + 999) / 1000 // ceil(p/1000 * n), 1-based
		if n-rank >= 10 {
			return p, s[rank-1], n
		}
	}
	return 1000, s[n-1], n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// digest is an order-independent fingerprint of a bag of rows: the row
// count plus two wrapping sums of per-row hashes. Rows are keyed with
// sqltypes.AppendKey, the engine's own grouping encoding, so two results
// digest equal exactly when they are equal as multisets (up to hash
// collisions).
type digest struct {
	N        int64
	Sum, Mix uint64
}

func (d *digest) addKey(key []byte) {
	h := fnv.New64a()
	h.Write(key)
	x := h.Sum64()
	d.N++
	d.Sum += x
	d.Mix += splitmix64(x)
}

// addRow folds one row; buf is scratch space returned for reuse.
func (d *digest) addRow(row []sqltypes.Value, buf []byte) []byte {
	buf = sqltypes.AppendKey(buf[:0], row...)
	d.addKey(buf)
	return buf
}

func digestRows(rows []storage.Row) digest {
	var d digest
	var buf []byte
	for _, r := range rows {
		buf = d.addRow(r, buf)
	}
	return d
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fromDriver maps a database/sql scanned value back onto the engine's
// value domain, so client-side rows digest like in-process ones.
func fromDriver(v any) sqltypes.Value {
	switch x := v.(type) {
	case nil:
		return sqltypes.Value{}
	case int64:
		return sqltypes.NewInt(x)
	case float64:
		return sqltypes.NewFloat(x)
	case string:
		return sqltypes.NewString(x)
	case []byte:
		return sqltypes.NewString(string(x))
	case bool:
		return sqltypes.NewBool(x)
	}
	// An unknown driver type cannot match the oracle: the op is reported
	// wrong, not skipped.
	return sqltypes.NewString(fmt.Sprintf("unexpected driver value %T", v))
}
