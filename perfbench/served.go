package main

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	_ "decorr/driver"
)

// decorrd is a running server process.
type decorrd struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error // receives cmd.Wait's result when the process ends
	log    *announceWriter
}

// announceWriter collects decorrd's stderr and signals the first line
// announcing the bound address.
type announceWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (w *announceWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		for _, line := range strings.Split(w.buf.String(), "\n") {
			// "decorrd: serving tpcd on 127.0.0.1:41234 (strategy auto)"
			if i := strings.Index(line, " on "); strings.Contains(line, "serving") && i >= 0 {
				if f := strings.Fields(line[i+4:]); len(f) > 0 {
					w.found = true
					w.addr <- f[0]
					break
				}
			}
		}
	}
	return len(p), nil
}

func (w *announceWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(w.buf.String())
}

// startDecorrd launches the built server on a kernel-chosen loopback port
// with its production defaults plus args, and waits for it to listen.
func (b *bench) startDecorrd(args ...string) (*decorrd, error) {
	if b.decorrd == "" {
		return nil, fmt.Errorf("no decorrd binary (pass --decorrd)")
	}
	log := &announceWriter{addr: make(chan string, 1)}
	cmd := exec.Command(b.decorrd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = log
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &decorrd{cmd: cmd, exited: make(chan error, 1), log: log}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case d.addr = <-log.addr:
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("decorrd exited before listening (%v): %s", err, log)
	case <-time.After(time.Minute):
		d.stop()
		return nil, fmt.Errorf("decorrd did not announce an address: %s", log)
	}
}

// stop terminates the server (SIGTERM, then SIGKILL after a grace
// period) and waits until the process has exited.
func (d *decorrd) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// openDB opens a database/sql handle on the server with at most n
// connections.
func openDB(addr string, n int) (*sql.DB, error) {
	db, err := sql.Open("decorr", addr)
	if err != nil {
		return nil, err
	}
	db.SetMaxOpenConns(n)
	db.SetMaxIdleConns(n)
	return db, nil
}

// client is one load connection with the workload's prepared statements.
type client struct {
	conn  *sql.Conn
	stmts map[string]*sql.Stmt // by SQL text
}

func newClient(ctx context.Context, db *sql.DB, prepared ...string) (*client, error) {
	conn, err := db.Conn(ctx)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, stmts: map[string]*sql.Stmt{}}
	for _, q := range prepared {
		st, err := conn.PrepareContext(ctx, q)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("prepare: %w", err)
		}
		c.stmts[q] = st
	}
	return c, nil
}

func (c *client) close() {
	for _, st := range c.stmts {
		st.Close()
	}
	c.conn.Close()
}

// do runs one op — through its prepared statement when the client holds
// one, as an ad-hoc text otherwise — and reads the whole result. When
// traced, the driver calls become spans under opID.
func (c *client) do(ctx context.Context, b *bench, o op, opID, req int64) (digest, time.Time, error) {
	t0 := time.Now()
	var rs *sql.Rows
	var err error
	if st := c.stmts[o.sql]; st != nil {
		rs, err = st.QueryContext(ctx, o.params...)
	} else {
		rs, err = c.conn.QueryContext(ctx, o.sql, o.params...)
	}
	t1 := time.Now()
	b.rec.leaf(opID, req, "driver.query", t0, t1)
	if err != nil {
		return digest{}, t1, err
	}
	d, _, first, err := drain(rs)
	b.rec.leaf(opID, req, "driver.fetch", t1, time.Now())
	return d, first, err
}

// closedLoop runs ops back to back on every client until dur elapses; each
// client sends its next op only after the previous one completes. It
// returns the samples and the loop's start time.
func (b *bench) closedLoop(ctx context.Context, clients []*client, ops []op, oracle map[string]digest, dur time.Duration) ([]sample, time.Time) {
	var next sync.Mutex
	idx := 0
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			prev := time.Now()
			for time.Now().Before(deadline) {
				next.Lock()
				o := ops[idx%len(ops)]
				idx++
				next.Unlock()
				req, opID := b.nextReq(), b.rec.id()
				t0 := time.Now()
				d, first, err := c.do(ctx, b, o, opID, req)
				end := time.Now()
				want, ok := oracle[o.key]
				b.check(o.kind.String()+" "+o.sql, d, err, want, ok)
				b.rec.add(opID, 0, req, "op."+o.kind.String(), t0, end)
				per[w] = append(per[w], sample{kind: o.kind, end: end, lat: end.Sub(t0), ttfr: first.Sub(t0), delay: t0.Sub(prev), rows: d.N})
				prev = end
			}
		}(w, c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, start
}

// openLoop issues ops on a fixed schedule, rate per second, whatever the
// server's progress: a dispatcher releases op i at its due time into a
// queue the clients drain. Latency and time to first row count from the
// due time, so a stall also charges the ops queued behind it; delay is
// how late a client picked the op up (queueing for a connection included).
func (b *bench) openLoop(ctx context.Context, clients []*client, ops []op, oracle map[string]digest, rate float64) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	work := make(chan int, len(ops)) // sized to the number of sends: the dispatcher never blocks
	go func() {
		defer close(work)
		// time.Sleep rounds short sleeps up to the runtime poller's
		// millisecond tick (~0.5 ms late on average); nanosleep on a
		// dedicated thread wakes within ~0.1 ms, so the schedule, not
		// the generator, sets when ops are sent.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := range ops {
			if d := time.Until(due(i)); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				syscall.Nanosleep(&ts, nil)
			}
			work <- i
		}
	}()
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for i := range work {
				o, dt := ops[i], due(i)
				req, opID := b.nextReq(), b.rec.id()
				pick := time.Now()
				b.rec.leaf(opID, req, "loadgen.wait", dt, pick)
				d, first, err := c.do(ctx, b, o, opID, req)
				end := time.Now()
				want, ok := oracle[o.key]
				b.check(o.kind.String()+" "+o.sql, d, err, want, ok)
				b.rec.add(opID, 0, req, "op."+o.kind.String(), dt, end)
				per[w] = append(per[w], sample{kind: o.kind, end: end, lat: end.Sub(dt), ttfr: first.Sub(dt), delay: pick.Sub(dt), rows: d.N})
			}
		}(w, c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// opSelfUs is the median self time of the load generator's op spans: the
// part of each op not spent waiting for a connection or inside a driver
// call (result checking, bookkeeping).
func opSelfUs(spans []span) float64 {
	self := selfTimes(spans)
	var xs []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "op.") {
			xs = append(xs, us(self[s.ID]))
		}
	}
	return median(xs)
}
