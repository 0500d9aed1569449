package main

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The same seed gives the identical op list — kinds, texts, literals,
// parameters — and another seed a different one.
func TestOpSequencesAreSeeded(t *testing.T) {
	gen := map[string]func(*rand.Rand, int) []op{"mix": mixOps, "stream": streamOps, "figures": figureOps}
	for name, f := range gen {
		a := f(rand.New(rand.NewSource(7)), 500)
		b := f(rand.New(rand.NewSource(7)), 500)
		c := f(rand.New(rand.NewSource(8)), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different ops", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same ops", name)
		}
	}
}

func TestMixShape(t *testing.T) {
	ops := mixOps(rand.New(rand.NewSource(1)), 20000)
	count := map[opKind]int{}
	for _, o := range ops {
		count[o.kind]++
		switch o.kind {
		case opQ1Param:
			// The parameterized Query 1 shares its oracle key with the
			// literal text of the same nation and size.
			if len(o.params) != 3 || o.params[0] != o.params[2] {
				t.Fatalf("q1param params %v", o.params)
			}
			if !strings.Contains(o.key, "'"+o.params[0].(string)+"'") || !strings.Contains(o.key, "'BRASS'") {
				t.Fatalf("q1param key does not carry its literals: %s", o.key)
			}
		case opAdhocQ1, opAdhocQ3:
			if o.key != o.sql || strings.Contains(o.sql, "?") || strings.Contains(o.sql, "%") {
				t.Fatalf("ad-hoc text not fully literal: %s", o.sql)
			}
		}
	}
	// Every block of 50 holds the exact shares.
	for k, want := range map[opKind]int{opPoint: 14000, opQ1Param: 4000, opAdhocQ1: 1600, opAdhocQ3: 400} {
		if count[k] != want {
			t.Errorf("%s: %d ops of 20000, want %d", k, count[k], want)
		}
	}
	if n := strings.Count(q1Param, "?"); n != 3 {
		t.Errorf("q1Param has %d placeholders, want 3", n)
	}
}

func TestFigureCycles(t *testing.T) {
	ops := figureOps(rand.New(rand.NewSource(3)), 50)
	for c := 0; c+len(figures) <= len(ops); c += len(figures) {
		seen := map[int]bool{}
		for _, o := range ops[c : c+len(figures)] {
			seen[o.fig] = true
			if o.sql != figures[o.fig].sql {
				t.Fatalf("figure op text differs from the paper query")
			}
		}
		if len(seen) != len(figures) {
			t.Errorf("cycle %d is not a permutation of the figures", c/len(figures))
		}
	}
}
