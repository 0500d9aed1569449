package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Unlike the program's own trace.Event (which carries only a nesting
// depth), a span names its parent and the request it belongs to, so spans
// from concurrent requests still form exact trees.
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // offsets from the recorder's epoch
}

// maxSpans bounds the recorder's memory; spans past it are counted, not kept.
const maxSpans = 1 << 20

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a cheap no-op, so the traced and
// untraced runs execute the same code.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span ID, so children can name their parent before the
// parent's own span is recorded.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span under a previously reserved ID.
func (r *recorder) add(id, parent, req int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

// leaf records a span with no children of its own.
func (r *recorder) leaf(parent, req int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(r.id(), parent, req, name, start, end)
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Overlapping children (concurrent
// calls under one parent) count once, and a child running past its
// parent's end covers only up to that end.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur := s.Start // everything before cur is already accounted for
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each request gets its own track; span
// and parent IDs travel in args.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Req, Args: map[string]int64{"id": s.ID, "parent": s.Parent, "req": s.Req}}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
