package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one timed operation.
type sample struct {
	kind  opKind
	fig   int
	end   time.Time     // when the last row arrived
	lat   time.Duration // from due time (open loop) or send (closed loop) to the last row
	ttfr  time.Duration // from the same origin to the first row (to the end for empty results)
	delay time.Duration // how late the load generator issued the op
	rows  int64
}

func latMs(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// windows cuts samples, ordered by the given time, into consecutive
// windows of size; a short remainder joins the last window, and fewer
// than size samples form one window.
func windows(ss []sample, size int, at func(sample) time.Time) [][]sample {
	s := append([]sample(nil), ss...)
	sort.SliceStable(s, func(i, j int) bool { return at(s[i]).Before(at(s[j])) })
	var out [][]sample
	for len(s) >= 2*size {
		out = append(out, s[:size])
		s = s[size:]
	}
	return append(out, s)
}

func byEnd(s sample) time.Time { return s.end }

// byDue orders open-loop samples by the time they were due.
func byDue(s sample) time.Time { return s.end.Add(-s.lat) }

// stealEvery is how often the steal sampler reads the CPU accounting.
const stealEvery = 100 * time.Millisecond

// maxSteal is the share of the machine's CPU time the host may steal
// during a window before the window is left out of the timings.
const maxSteal = 0.02

// window is a stretch of consecutive closed-loop ops, the wall span they
// completed in, and the share of the machine's CPU time the host stole in
// that span.
type window struct {
	ss       []sample
	from, to time.Time
	steal    float64
}

// spanWindows cuts closed-loop samples that started at start into windows
// of size ops by completion; each window spans from the previous one's
// last completion (start, for the first) to its own.
func spanWindows(ss []sample, start time.Time, size int, steal func(from, to time.Time) float64) []window {
	var out []window
	prev := start
	for _, w := range windows(ss, size, byEnd) {
		if len(w) == 0 {
			continue
		}
		to := w[len(w)-1].end
		out = append(out, window{w, prev, to, steal(prev, to)})
		prev = to
	}
	return out
}

// measured picks the windows the timings are read from: those in which the
// host stole at most maxSteal of the machine's CPU time. On a shared
// virtual machine the host runs other tenants on the benchmark's cores
// now and then, and every op of such a stretch slows down — up to
// threefold on a 2-vCPU VM — for reasons outside the program. When fewer
// than a quarter of the windows are that clean, the least-robbed quarter
// is used.
func measured(ws []window) []window {
	var clean []window
	for _, w := range ws {
		if w.steal <= maxSteal {
			clean = append(clean, w)
		}
	}
	if need := (len(ws) + 3) / 4; len(clean) < need {
		clean = append([]window(nil), ws...)
		sort.SliceStable(clean, func(i, j int) bool { return clean[i].steal < clean[j].steal })
		clean = clean[:need]
	}
	return clean
}

// reportWindows sets the closed-loop timings — qps, rows_per_s,
// latency_p50_ms, latency_tail_ms and ttfr_p50_ms — from the samples of a
// closed loop that started at start. Each is computed per window of size
// ops and reported as the median over the measured windows. It logs the
// windows used, the tail's percentile and the host's steal.
func (b *bench) reportWindows(ss []sample, start time.Time, size int, host *stealSampler) {
	all := spanWindows(ss, start, size, host.share)
	used := measured(all)
	var qps, rows, p50s, tails, ttfrs, steals []float64
	p := 0
	for _, w := range all {
		steals = append(steals, w.steal*100)
	}
	for _, w := range used {
		sec := w.to.Sub(w.from).Seconds()
		lat := latMs(w.ss, nil)
		ttfr := make([]float64, len(w.ss))
		var n float64
		for i, s := range w.ss {
			ttfr[i] = ms(s.ttfr)
			n += float64(s.rows)
		}
		var v float64
		p, v, _ = tail(lat)
		qps, rows = append(qps, float64(len(w.ss))/sec), append(rows, n/sec)
		p50s, tails, ttfrs = append(p50s, median(lat)), append(tails, v), append(ttfrs, median(ttfr))
	}
	b.metric("qps", median(qps))
	b.metric("rows_per_s", median(rows))
	b.metric("latency_p50_ms", median(p50s))
	b.metric("latency_tail_ms", median(tails))
	b.metric("ttfr_p50_ms", median(ttfrs))
	logf("closed loop: %d ops in %d windows, %d measured (host steal %% per window %s)", len(ss), len(all), len(used), fmtFloats(steals))
	logf("measured windows: qps %.1f (%s), p50 %.3f ms (%s), tail p%s %.3f ms (%s), ttfr p50 %.3f ms",
		median(qps), fmtFloats(qps), median(p50s), fmtFloats(p50s), permilleName(p), median(tails), fmtFloats(tails), median(ttfrs))
}

// stealSampler polls the kernel's CPU accounting (/proc/stat) to tell how
// much of the machine's CPU time the host stole — spent running something
// else while a virtual CPU of this machine wanted to run — in a span.
// Where the kernel keeps no such account every span reads 0.
type stealSampler struct {
	stop, done   chan struct{}
	at           []time.Time
	steal, total []float64
}

func startSteal(every time.Duration) *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.read()
			select {
			case <-s.stop:
				s.read()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *stealSampler) read() {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return
	}
	var total, steal float64
	for i, v := range fields[1:9] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	s.at, s.steal, s.total = append(s.at, time.Now()), append(s.steal, steal), append(s.total, total)
}

// end stops the sampler after a last reading; share may be called after.
func (s *stealSampler) end() {
	close(s.stop)
	<-s.done
}

// share is the stolen share of the machine's CPU time between from and
// to, with the counters interpolated linearly between readings.
func (s *stealSampler) share(from, to time.Time) float64 {
	dt := s.interp(s.total, to) - s.interp(s.total, from)
	if dt <= 0 {
		return 0
	}
	return (s.interp(s.steal, to) - s.interp(s.steal, from)) / dt
}

func (s *stealSampler) interp(v []float64, t time.Time) float64 {
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(t) })
	switch {
	case len(v) == 0:
		return 0
	case i == 0:
		return v[0]
	case i == len(v):
		return v[i-1]
	}
	f := float64(t.Sub(s.at[i-1])) / float64(s.at[i].Sub(s.at[i-1]))
	return v[i-1] + f*(v[i]-v[i-1])
}

func permilleName(p int) string {
	if p%10 == 0 {
		return fmt.Sprint(p / 10)
	}
	return fmt.Sprintf("%d.%d", p/10, p%10)
}

// sendDelayP99 is the generator's lateness tail in milliseconds.
func sendDelayP99(ss []sample) float64 {
	d := make([]float64, len(ss))
	for i, s := range ss {
		d[i] = ms(s.delay)
	}
	_, v, _ := tail(d)
	return v
}

// peakSampler polls a memory reading on a fixed period and keeps the max.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	err  error
}

func startPeak(every time.Duration, read func() (uint64, error)) *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			v, err := read()
			if err != nil {
				p.err = err
				return
			}
			p.peak = max(p.peak, v)
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// end stops the sampler and returns the peak in MiB.
func (p *peakSampler) end() (float64, error) {
	close(p.stop)
	<-p.done
	return float64(p.peak) / (1 << 20), p.err
}

// heapObjects reads this process's live-plus-unswept heap object bytes
// without stopping the world.
func heapObjects() (uint64, error) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0, fmt.Errorf("runtime/metrics: heap objects unsupported")
	}
	return s[0].Value.Uint64(), nil
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setupReps is how many times an untraced run sets up.
const setupReps = 5

// repeatSetup runs a workload's set-up n times, reports the median as
// setup_s, and keeps the last instance (the earlier ones are released
// with drop). Each set-up starts from a collected heap, so none pays for
// its predecessor's garbage. Untraced runs repeat to steady setup_s;
// traced runs set up once.
func repeatSetup[T any](b *bench, n int, setup func() (T, error), drop func(T)) (T, error) {
	if b.traced {
		n = 1
	}
	var times []float64
	var cur T
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return cur, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			drop(v)
		}
		cur = v
	}
	logf("setup: %v s (median %.3f s)", fmtFloats(times), median(times))
	if !b.traced {
		b.metric("setup_s", median(times))
	}
	return cur, nil
}

func fmtFloats(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}
