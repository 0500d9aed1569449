package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1) // the k-th smallest sample is k
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// The tail is the highest percentile with at least ten samples beyond it
// (nearest rank), and the maximum when no percentile above the median has
// ten.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, permille int
		value       float64
	}{
		{10000, 999, 9990},
		{9999, 990, 9900}, // p99.9 would leave 9 beyond
		{1000, 990, 990},
		{999, 950, 950}, // p99 would leave 9 beyond
		{100, 900, 90},
		{40, 750, 30},
		{39, 1000, 39},
		{1, 1000, 1},
	} {
		p, v, n := tail(seq(tc.n))
		if p != tc.permille || v != tc.value || n != tc.n {
			t.Errorf("tail(n=%d) = p%d %v (n=%d), want p%d %v", tc.n, p, v, n, tc.permille, tc.value)
		}
		if p < 1000 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("tail(n=%d) leaves %d samples beyond it", tc.n, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestDigestIsABag(t *testing.T) {
	row := func(vs ...sqltypes.Value) storage.Row { return vs }
	a := row(sqltypes.NewInt(1), sqltypes.NewString("x"))
	b := row(sqltypes.NewFloat(2.5), sqltypes.Value{})
	c := row(sqltypes.NewInt(1), sqltypes.NewString("y"))
	if digestRows([]storage.Row{a, b, a}) != digestRows([]storage.Row{a, a, b}) {
		t.Error("digest depends on row order")
	}
	if digestRows([]storage.Row{a, b}) == digestRows([]storage.Row{a, c}) {
		t.Error("digest ignores a changed value")
	}
	if digestRows([]storage.Row{a, a, b}) == digestRows([]storage.Row{a, b, b}) {
		t.Error("digest ignores multiplicity")
	}
	// A row that crossed database/sql digests like the engine's row.
	if digestRows([]storage.Row{row(fromDriver(int64(1)), fromDriver([]byte("x")))}) != digestRows([]storage.Row{a}) {
		t.Error("driver values digest differently from engine values")
	}
}

func TestWindowsAndSpans(t *testing.T) {
	start := time.Unix(0, 0)
	var ss []sample
	for i := 0; i < 2500; i++ {
		// The first 1000 ops take 1 ms each, the rest 2 ms each.
		step := time.Millisecond
		if i >= 1000 {
			step = 2 * time.Millisecond
		}
		end := start
		if len(ss) > 0 {
			end = ss[len(ss)-1].end
		}
		ss = append(ss, sample{end: end.Add(step), rows: 2})
	}
	ws := windows(ss, 1000, byEnd)
	if len(ws) != 2 || len(ws[0]) != 1000 || len(ws[1]) != 1500 {
		t.Fatalf("windows: %d windows", len(ws))
	}
	noSteal := func(from, to time.Time) float64 { return 0 }
	sw := spanWindows(ss, start, 1000, noSteal)
	if len(sw) != 2 || !sw[0].from.Equal(start) || sw[0].to.Sub(sw[0].from) != time.Second ||
		!sw[1].from.Equal(sw[0].to) || sw[1].to.Sub(sw[1].from) != 3*time.Second {
		t.Fatalf("spans: %+v", sw)
	}
}

func TestMeasuredWindows(t *testing.T) {
	mk := func(steals ...float64) []window {
		var ws []window
		for _, s := range steals {
			ws = append(ws, window{steal: s})
		}
		return ws
	}
	steals := func(ws []window) []float64 {
		var out []float64
		for _, w := range ws {
			out = append(out, w.steal)
		}
		return out
	}
	// Clean windows are kept in order; robbed ones are left out.
	if got := steals(measured(mk(0, 0.5, 0.01, 0.02, 0.03))); !reflect.DeepEqual(got, []float64{0, 0.01, 0.02}) {
		t.Errorf("measured = %v", got)
	}
	// Too few clean windows: the least-robbed quarter (rounded up).
	if got := steals(measured(mk(0.3, 0.1, 0.5, 0.2, 0.4, 0.6, 0.05, 0.7))); !reflect.DeepEqual(got, []float64{0.05, 0.1}) {
		t.Errorf("fallback = %v", got)
	}
}

func TestStealShare(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := &stealSampler{
		at:    []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second)},
		steal: []float64{0, 0, 50},
		total: []float64{0, 200, 400},
	}
	if v := s.share(t0, t0.Add(time.Second)); v != 0 {
		t.Errorf("clean second: %v", v)
	}
	if v := s.share(t0.Add(time.Second), t0.Add(2*time.Second)); v != 0.25 {
		t.Errorf("robbed second: %v, want 0.25", v)
	}
	// Interpolated inside a reading interval, clamped outside the readings.
	if v := s.share(t0.Add(1500*time.Millisecond), t0.Add(5*time.Second)); v != 0.25 {
		t.Errorf("half interval: %v, want 0.25", v)
	}
	if v := (&stealSampler{}).share(t0, t0.Add(time.Second)); v != 0 {
		t.Errorf("no readings: %v", v)
	}
}
