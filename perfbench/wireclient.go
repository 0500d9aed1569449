package main

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"net"
	"time"

	"decorr/internal/sqltypes"
	"decorr/internal/wire"
)

// wireClient speaks the protocol directly, below the driver, so the
// benchmark can count frames, keep the Batch frames it receives, and poll
// Status.
type wireClient struct {
	c      net.Conn
	frames int64
}

func dialWire(addr string) (*wireClient, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	w := &wireClient{c: nc}
	reply, err := w.rpc(&wire.Hello{Version: wire.Version})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if _, ok := reply.(*wire.HelloOK); !ok {
		nc.Close()
		return nil, fmt.Errorf("handshake reply %T", reply)
	}
	return w, nil
}

func (w *wireClient) Close() error { return w.c.Close() }

func (w *wireClient) rpc(req wire.Message) (wire.Message, error) {
	if err := wire.Write(w.c, req); err != nil {
		return nil, err
	}
	reply, err := wire.Read(w.c)
	if err != nil {
		return nil, err
	}
	w.frames += 2
	if e, ok := reply.(*wire.Error); ok {
		return nil, e
	}
	return reply, nil
}

// heap returns the server's live heap from a Status frame.
func (w *wireClient) heap() (uint64, error) {
	reply, err := w.rpc(&wire.Status{})
	if err != nil {
		return 0, err
	}
	st, ok := reply.(*wire.StatusOK)
	if !ok {
		return 0, fmt.Errorf("status reply %T", reply)
	}
	return st.HeapAlloc, nil
}

// query executes sql and fetches the whole result, returning its digest,
// row count, and up to keep of the Batch frames received.
func (w *wireClient) query(sql string, params []sqltypes.Value, keep int) (digest, []*wire.Batch, error) {
	var d digest
	reply, err := w.rpc(&wire.Execute{SQL: sql, Params: params})
	if err != nil {
		return d, nil, err
	}
	ok, isOK := reply.(*wire.ExecuteOK)
	if !isOK {
		return d, nil, fmt.Errorf("execute reply %T", reply)
	}
	var kept []*wire.Batch
	var buf []byte
	for {
		reply, err := w.rpc(&wire.Fetch{CursorID: ok.CursorID})
		if err != nil {
			return d, kept, err
		}
		switch m := reply.(type) {
		case *wire.Batch:
			for _, r := range m.Rows {
				buf = d.addRow(r, buf)
			}
			if len(kept) < keep {
				kept = append(kept, m)
			}
		case *wire.Done:
			return d, kept, nil
		default:
			return d, kept, fmt.Errorf("fetch reply %T", reply)
		}
	}
}

// servingStmt is one statement the serving probe replays.
type servingStmt struct {
	sql    string
	params []any
	want   digest
}

func toValues(params []any) []sqltypes.Value {
	out := make([]sqltypes.Value, len(params))
	for i, p := range params {
		out[i] = fromDriver(p)
	}
	return out
}

// servingProbe replays statements against a server at addr, twice per
// statement: once below the driver on a raw protocol connection (frames
// and bytes per query, the Batch frames received), and once through
// database/sql on db (driver.query_us: QueryContext until it returns;
// driver.next_ns_per_row: Next plus Scan per row after the first — the
// first row waits for the server to execute the query). The kept Batch frames
// then time the wire codec alone: wire.Write into memory and wire.Read
// back, per row.
func (b *bench) servingProbe(ctx context.Context, addr string, db *sql.DB, stmts []servingStmt) error {
	parent, req := b.rec.id(), b.nextReq()
	start := time.Now()
	wc, err := dialWire(addr)
	if err != nil {
		return err
	}
	defer wc.Close()
	var batches []*wire.Batch
	var rows, frames int64
	for _, s := range stmts {
		f0 := wc.frames
		t0 := time.Now()
		d, kept, err := wc.query(s.sql, toValues(s.params), 64-len(batches))
		b.rec.leaf(parent, req, "wire.query", t0, time.Now())
		b.check("wire "+s.sql, d, err, s.want, true)
		if err != nil {
			return err
		}
		frames += wc.frames - f0
		rows += d.N
		batches = append(batches, kept...)
	}

	var queryUs, nextNs []float64
	for _, s := range stmts {
		t0 := time.Now()
		rs, err := db.QueryContext(ctx, s.sql, s.params...)
		t1 := time.Now()
		b.rec.leaf(parent, req, "driver.query", t0, t1)
		if err != nil {
			b.check("driver "+s.sql, digest{}, err, s.want, true)
			return err
		}
		d, n, first, err := drain(rs)
		t2 := time.Now()
		b.rec.leaf(parent, req, "driver.first_row", t1, first)
		b.rec.leaf(parent, req, "driver.next", first, t2)
		b.check("driver "+s.sql, d, err, s.want, true)
		queryUs = append(queryUs, us(t1.Sub(t0)))
		if n > 1 {
			nextNs = append(nextNs, float64(t2.Sub(first))/float64(n-1))
		}
	}

	enc, dec, size, err := codecCost(batches)
	if err != nil {
		return err
	}
	b.rec.add(parent, 0, req, "probe.serving", start, time.Now())
	b.metric("wire.frames_per_query", float64(frames)/float64(len(stmts)))
	b.metric("wire.bytes_per_row", size)
	b.metric("wire.encode_ns_per_row", enc)
	b.metric("wire.decode_ns_per_row", dec)
	b.metric("driver.query_us", median(queryUs))
	b.metric("driver.next_ns_per_row", median(nextNs))
	logf("serving probe: %d statements, %d rows, %d batches kept for the codec", len(stmts), rows, len(batches))
	return nil
}

// codecPasses is how many times codecCost encodes and decodes the batches.
const codecPasses = 21

// codecCost times the wire codec alone on batches: wire.Write of every
// batch into memory, then wire.Read of every frame back. It returns the
// median pass's encode and decode time per row, and the encoded frame
// bytes per row.
func codecCost(batches []*wire.Batch) (encNs, decNs, bytesPerRow float64, err error) {
	var rows int
	for _, bt := range batches {
		rows += len(bt.Rows)
	}
	if rows == 0 {
		return 0, 0, 0, nil
	}
	var buf bytes.Buffer
	var encs, decs []float64
	for i := 0; i < codecPasses; i++ {
		buf.Reset()
		t0 := time.Now()
		for _, bt := range batches {
			if err := wire.Write(&buf, bt); err != nil {
				return 0, 0, 0, err
			}
		}
		t1 := time.Now()
		r := bytes.NewReader(buf.Bytes())
		for r.Len() > 0 {
			if _, err := wire.Read(r); err != nil {
				return 0, 0, 0, err
			}
		}
		encs = append(encs, float64(t1.Sub(t0))/float64(rows))
		decs = append(decs, float64(time.Since(t1))/float64(rows))
	}
	return median(encs), median(decs), float64(buf.Len()) / float64(rows), nil
}

// drain reads a result to the end, digesting every row, and reports when
// the first row arrived (when the result ended, for an empty one).
func drain(rs *sql.Rows) (d digest, n int64, first time.Time, err error) {
	cols, err := rs.Columns()
	if err != nil {
		rs.Close()
		return d, 0, first, err
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	row := make([]sqltypes.Value, len(cols))
	var buf []byte
	for rs.Next() {
		if first.IsZero() {
			first = time.Now()
		}
		if err := rs.Scan(ptrs...); err != nil {
			rs.Close()
			return d, d.N, first, err
		}
		for i, v := range vals {
			row[i] = fromDriver(v)
		}
		buf = d.addRow(row, buf)
	}
	if first.IsZero() {
		first = time.Now()
	}
	if err := rs.Err(); err != nil {
		rs.Close()
		return d, d.N, first, err
	}
	return d, d.N, first, rs.Close()
}
