package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"probdb/internal/wire"
)

// maxAttempts caps how often one op is tried: a read after a transport
// error or a retryable refusal, a write or txn after a retryable refusal.
// Only after the cap does the op count as failed.
const maxAttempts = 6

// maxConflicts caps the re-runs of a txn that keeps losing first-writer-wins
// races. It is higher than maxAttempts: beside a busy autocommit writer a
// short txn loses often, and every loss is re-run, as cmd/probgen's writers
// do.
const maxConflicts = 20

// Backoff curves, both of govern.Backoff's shape. A refusal without a
// RetryAfter hint backs off from 5 ms to 250 ms, the curve cmd/probgen's
// conflict retries use. A conflict means the other writer has already
// committed, so the txn re-runs almost at once: its backoff is short and
// only breaks lockstep, and it keeps sleep out of the write latency.
const (
	refusedBase  = 5 * time.Millisecond
	refusedMax   = 250 * time.Millisecond
	conflictBase = time.Millisecond
	conflictMax  = 20 * time.Millisecond
)

// countConn counts the bytes the client reads: the wire cost of each op.
type countConn struct {
	net.Conn
	n int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += int64(n)
	return n, err
}

// client is one benchmark connection. wire.Client keeps using a connection
// after a transport error (a timed-out statement's reply can arrive as the
// answer to the next one), so any transport error closes and redials.
type client struct {
	addr  string
	cc    *countConn
	wc    *wire.Client
	tr    *tracer    // nil when the run is untraced
	rng   *rand.Rand // backoff jitter; set on the clients that run ops
	dials int
}

func dial(addr string) (*client, error) {
	c := &client{addr: addr}
	return c, c.redial()
}

func (c *client) redial() error {
	if c.wc != nil {
		c.wc.Close() //nolint:errcheck // the connection is being discarded after an error
	}
	conn, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	c.cc = &countConn{Conn: conn}
	c.wc = wire.NewClient(c.cc)
	c.dials++
	return nil
}

func (c *client) close() {
	if c.wc != nil {
		c.wc.Close() //nolint:errcheck // teardown
	}
}

// reply is one statement's outcome as the client saw it.
type reply struct {
	cols  []wire.Column
	rows  []wire.Row // only when the caller keeps them
	n     int        // rows delivered
	res   *wire.Result
	first time.Duration // send until the first frame (a RowBatch or the Result)
	lat   time.Duration // send until ResultEnd
}

// exec sends one statement and drains its reply. With keep the rows are
// returned (the answer check needs them); otherwise only counted.
func (c *client) exec(sql string, keep bool, opID int32, parent int32) (reply, error) {
	var rp reply
	t0 := time.Now()
	sp := c.tr.begin(opID, parent, "wire.QueryStream")
	st, err := c.wc.QueryStream(sql)
	c.tr.end(sp)
	if err != nil {
		return rp, err
	}
	rp.first = time.Since(t0)
	rp.cols = st.Columns()
	n := 0
	for {
		sp := c.tr.begin(opID, parent, "wire.NextBatch")
		batch, err := st.NextBatch()
		c.tr.end(sp)
		if err != nil {
			return rp, err
		}
		if batch == nil {
			break
		}
		n += len(batch)
		if keep {
			rp.rows = append(rp.rows, batch...)
		}
	}
	sp = c.tr.begin(opID, parent, "wire.Result")
	res, err := st.Result()
	c.tr.end(sp)
	if err != nil {
		return rp, err
	}
	rp.lat = time.Since(t0)
	rp.res, rp.n = res, n
	return rp, nil
}

// stmtSample is one statement's client latency beside what the server
// reported for it.
type stmtSample struct {
	clientUs uint64
	stats    wire.Stats
}

// opRec is one op's outcome.
type opRec struct {
	class     string
	kind      opKind
	lat       time.Duration
	first     time.Duration // reads only: send until the first frame
	rows      int
	bytes     int64
	retries   int
	conflicts int
	failed    bool
	err       string
	stmts     []stmtSample
}

func isTransport(err error) bool {
	var se *wire.ServerError
	return !errors.As(err, &se)
}

func retryable(err error) (time.Duration, bool) {
	var se *wire.ServerError
	if errors.As(err, &se) && se.Retryable() {
		return se.RetryAfter, true
	}
	return 0, false
}

func isConflict(err error) bool {
	return !isTransport(err) && strings.Contains(err.Error(), "conflict")
}

// backoff sleeps before the next attempt: the server's RetryAfter hint when
// it gave one, else base doubled per attempt up to maxDelay. Either is
// jittered to 50–150%, as govern.Jitter does, but from the client's seeded
// rand, so a run's sleep schedule repeats with its seed.
func (c *client) backoff(attempt int, hint, base, maxDelay time.Duration) {
	d := hint
	if d <= 0 {
		d = base
		for i := 0; i < attempt && d < maxDelay; i++ {
			d *= 2
		}
		d = min(d, maxDelay)
	}
	time.Sleep(time.Duration(float64(d) * (0.5 + c.rng.Float64())))
}

// ledger records the writes a run made, for the answer check: committed
// statements are certain, those whose ack was lost to a transport error
// are not and get resolved against the server afterwards.
type ledger struct {
	mu        sync.Mutex
	committed []string
	uncertain []string
}

func (l *ledger) add(committed bool, sqls ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if committed {
		l.committed = append(l.committed, sqls...)
	} else {
		l.uncertain = append(l.uncertain, sqls...)
	}
}

// do runs one op to completion, retrying as the op's kind allows.
func (c *client) do(o op, opID int32, led *ledger) opRec {
	rec := opRec{class: o.class, kind: o.kind, first: -1}
	bytes0 := c.cc.n
	dials0 := c.dials
	root := c.tr.begin(opID, -1, "op."+o.class)
	t0 := time.Now()
	var err error
	switch o.kind {
	case opRead, opWrite:
		err = c.single(o, opID, root, &rec, led)
	case opTxn:
		err = c.txn(o, opID, root, &rec, led)
	}
	rec.lat = time.Since(t0)
	c.tr.end(root)
	if c.dials == dials0 {
		rec.bytes = c.cc.n - bytes0
	}
	if err != nil {
		rec.failed = true
		rec.err = err.Error()
	}
	return rec
}

func (c *client) single(o op, opID, root int32, rec *opRec, led *ledger) error {
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			rec.retries++
		}
		var rp reply
		rp, err = c.exec(o.sql[0], false, opID, root)
		if err == nil {
			if o.kind == opRead {
				rec.first = rp.first
			} else {
				led.add(true, o.sql[0])
			}
			rec.rows = rp.n
			rec.stmts = append(rec.stmts, stmtSample{clientUs: uint64(rp.lat.Microseconds()), stats: rp.res.Stats})
			return nil
		}
		if isTransport(err) {
			if o.kind == opWrite {
				// The write may or may not have been applied; it cannot be
				// resubmitted blindly.
				led.add(false, o.sql[0])
				if rerr := c.redial(); rerr != nil {
					return rerr
				}
				return err
			}
			if rerr := c.redial(); rerr != nil {
				return rerr
			}
			continue
		}
		hint, ok := retryable(err)
		if !ok {
			return err
		}
		c.backoff(attempt, hint, refusedBase, refusedMax)
	}
	return err
}

// txn runs BEGIN; INSERT…; COMMIT, re-running it from BEGIN when it loses a
// first-writer-wins race or is refused before executing.
func (c *client) txn(o op, opID, root int32, rec *opRec, led *ledger) error {
	var err error
	for attempt := 0; attempt-rec.conflicts < maxAttempts && rec.conflicts <= maxConflicts; attempt++ {
		if attempt > 0 {
			rec.retries++
		}
		var samples []stmtSample
		stmts := append(append([]string{"BEGIN"}, o.sql...), "COMMIT")
		for i, sql := range stmts {
			var rp reply
			rp, err = c.exec(sql, false, opID, root)
			if err != nil {
				if isTransport(err) {
					if i == len(stmts)-1 {
						led.add(false, o.sql...)
					}
					if rerr := c.redial(); rerr != nil {
						return rerr
					}
					if i == len(stmts)-1 {
						return err
					}
					break // a redial ends the session and with it the txn
				}
				if i < len(stmts)-1 {
					if _, rerr := c.exec("ROLLBACK", false, opID, root); rerr != nil && isTransport(rerr) {
						if rerr := c.redial(); rerr != nil {
							return rerr
						}
					}
				}
				break
			}
			samples = append(samples, stmtSample{clientUs: uint64(rp.lat.Microseconds()), stats: rp.res.Stats})
		}
		if err == nil {
			rec.stmts = append(rec.stmts, samples...)
			led.add(true, o.sql...)
			return nil
		}
		switch {
		case isConflict(err):
			rec.conflicts++
			c.backoff(rec.conflicts-1, 0, conflictBase, conflictMax)
		case isTransport(err):
			// redialed above; the txn never committed
		default:
			hint, ok := retryable(err)
			if !ok {
				return err
			}
			c.backoff(attempt, hint, refusedBase, refusedMax)
		}
	}
	return err
}
