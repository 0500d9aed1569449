package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time is the span's duration minus the part of it its children
// cover, overlapping children counted once and clipped to the parent.
func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: ms(25), End: ms(45)},  // grandchild
		{ID: 6, Parent: 1, Name: "e", Start: ms(35), End: ms(40)},  // inside b
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(10), 4: ms(30), 5: ms(20), 6: ms(5)} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *recorder
	if id := r.id(); id != 0 {
		t.Errorf("nil recorder id = %d", id)
	}
	r.add(1, 0, 1, "x", time.Now(), time.Now()) // must not panic
	r.leaf(0, 1, "x", time.Now(), time.Now())
}

func TestChromeTrace(t *testing.T) {
	r := newRecorder()
	req := int64(7)
	parent := r.id()
	t0 := time.Now()
	r.leaf(parent, req, "child", t0, t0.Add(time.Millisecond))
	r.add(parent, 0, req, "parent", t0, t0.Add(2*time.Millisecond))
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]int64
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	child := doc.TraceEvents[0]
	if child.Name != "child" || child.Ph != "X" || child.Args["parent"] != parent || child.Args["req"] != req {
		t.Errorf("child event %+v", child)
	}
	if d := doc.TraceEvents[1].Dur; d < 1999 || d > 2001 {
		t.Errorf("parent duration %v us", d)
	}
}
