package main

import (
	"net"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// layer names a span's layer. Higher values are deeper: where spans
// overlap, the instant belongs to the deepest one, so self times never
// double-count and add up to the root span exactly.
type layer uint8

const (
	lRoot        layer = iota // one Session-level batch
	lPublish                  // Violations().Publish()
	lNormalize                // UpdateList.Normalize
	lEngine                   // the engine's ApplyBatch (or Session.ApplyBatch on hor-tcp)
	lNetRead                  // net.Conn Read on a site connection
	lNetWrite                 // net.Conn Write on a site connection
	lStoreGet                 // Store.Get, Each, EachRange
	lStorePut                 // Store.Put
	lStoreDelete              // Store.Delete
	lStoreFlush               // Store.Flush
	numLayers
)

// span is one timed call, in nanoseconds since the tracer's base.
type span struct {
	start, end int64
	l          layer
}

// tracer records spans into a buffer preallocated before the timed
// phase; nothing is written out until the run ends. Recording is safe
// from several goroutines (site connections are driven in parallel).
type tracer struct {
	base    time.Time
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
	calls   [numLayers]atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(l layer, start, end int64) {
	t.calls[l].Add(1)
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{start: start, end: end, l: l}
}

// reset forgets everything recorded so far (set-up and warm-up).
func (t *tracer) reset() {
	t.n.Store(0)
	t.dropped.Store(0)
	for i := range t.calls {
		t.calls[i].Store(0)
	}
}

// spans returns the recorded spans sorted by start.
func (t *tracer) spans() []span {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	s := t.buf[:n]
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	return s
}

// selfTimes attributes every instant of each root span to the deepest
// span covering it and returns, per root, the nanoseconds each layer
// owns; instants covered by no child belong to lRoot. Spans must be
// sorted by start.
func selfTimes(roots []span, spans []span) [][numLayers]int64 {
	out := make([][numLayers]int64, len(roots))
	type edge struct {
		t     int64
		delta int
		l     layer
	}
	var edges []edge
	j := 0
	for ri, r := range roots {
		for j < len(spans) && spans[j].end <= r.start {
			j++
		}
		edges = edges[:0]
		for k := j; k < len(spans) && spans[k].start < r.end; k++ {
			s := spans[k]
			if s.l == lRoot || s.end <= r.start {
				continue
			}
			edges = append(edges, edge{max(s.start, r.start), 1, s.l}, edge{min(s.end, r.end), -1, s.l})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
		var active [numLayers]int
		prev := r.start
		for _, e := range edges {
			top := lRoot
			for l := numLayers - 1; l > lRoot; l-- {
				if active[l] > 0 {
					top = l
					break
				}
			}
			out[ri][top] += e.t - prev
			prev = e.t
			active[e.l] += e.delta
		}
		out[ri][lRoot] += r.end - prev
	}
	return out
}

// tracedStore times and counts every call into a storage.Store.
type tracedStore struct {
	storage.Store
	tr *tracer
}

func (s tracedStore) Get(key []byte) ([]byte, bool, error) {
	t0 := s.tr.now()
	v, ok, err := s.Store.Get(key)
	s.tr.record(lStoreGet, t0, s.tr.now())
	return v, ok, err
}

func (s tracedStore) Put(key, val []byte) error {
	t0 := s.tr.now()
	err := s.Store.Put(key, val)
	s.tr.record(lStorePut, t0, s.tr.now())
	return err
}

func (s tracedStore) Delete(key []byte) error {
	t0 := s.tr.now()
	err := s.Store.Delete(key)
	s.tr.record(lStoreDelete, t0, s.tr.now())
	return err
}

// Each and EachRange count as reads; their spans include the caller's
// callbacks, which are short decode steps.
func (s tracedStore) Each(fn func(key, val []byte) bool) error {
	t0 := s.tr.now()
	err := s.Store.Each(fn)
	s.tr.record(lStoreGet, t0, s.tr.now())
	return err
}

func (s tracedStore) EachRange(lo, hi []byte, fn func(key, val []byte) bool) error {
	t0 := s.tr.now()
	err := s.Store.EachRange(lo, hi, fn)
	s.tr.record(lStoreGet, t0, s.tr.now())
	return err
}

func (s tracedStore) Flush() error {
	t0 := s.tr.now()
	err := s.Store.Flush()
	s.tr.record(lStoreFlush, t0, s.tr.now())
	return err
}

// tracedConn times and counts every Read and Write on a site
// connection; a Read's span is mostly the wait for the site's reply.
type tracedConn struct {
	net.Conn
	tr *tracer
}

func (c tracedConn) Read(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Read(p)
	c.tr.record(lNetRead, t0, c.tr.now())
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Write(p)
	c.tr.record(lNetWrite, t0, c.tr.now())
	return n, err
}

// dialer returns a WithTCPDialer hook whose connections are traced.
func (t *tracer) dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return tracedConn{Conn: c, tr: t}, nil
	}
}
