package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/storage"
)

// readSample is one timed read.
type readSample struct {
	op readOp
	// lat is end minus the read's due time, svc end minus its start,
	// late start minus due (how late the generator ran), snap the
	// Snapshot call alone.
	lat, svc, late, snap time.Duration
}

// phase is what one driven session phase measured.
type phase struct {
	batches, updates int
	apply            []time.Duration // one per timed batch
	wall             time.Duration   // timed phase, first batch start to last batch end
	failedWrites     int
	deltaMarks       int

	reads       []readSample
	failedReads int

	watchEvents, watchDropped uint64

	heapLive float64 // MiB above the pre-Open baseline, after a forced GC
	memDelta memDelta

	net         network.Stats // delta over the timed phase
	frameBoot   int64         // frame bytes of Open's bootstrap, before any batch
	frameSteady int64         // frame bytes over the timed phase only
	siteCalls   int64         // call sequence numbers over the timed phase
	store       map[string]storage.Stats
	storeStart  map[string]storage.Stats
	rounds      uint64
}

// memDelta is the runtime's work over the timed phase.
type memDelta struct {
	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration
}

// drive applies the warm-up batches untimed, then the timed batches
// from one closed-loop writer while an open-loop reader runs beside it
// and one Watch subscriber drains events. heapBase is the live heap
// before the session was opened.
func drive(sp spec, sess *session.Session, in *inputs, timed int, heapBase uint64) (*phase, error) {
	p := &phase{batches: timed, apply: make([]time.Duration, 0, timed)}
	c := sess.Cluster()
	if c != nil {
		p.frameBoot = c.FrameBytes()
	}
	ctx := context.Background()
	for _, b := range in.batches[:in.warm] {
		if _, err := sess.ApplyBatch(ctx, b); err != nil {
			return nil, fmt.Errorf("warm-up batch: %w", err)
		}
	}
	var frameStart int64
	if c != nil {
		frameStart = c.FrameBytes()
	}
	netStart := sess.Stats()
	callsStart := sum64(sess.SiteCalls())
	p.storeStart = sess.StorageStats()

	sub := sess.Subscribe(64)
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for range sub.C() {
			p.watchEvents++
		}
	}()

	// Every round starts timing from a collected heap, so rounds do
	// not inherit each other's collector state.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	if sp.Reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.reads, p.failedReads = readLoop(sp, sess, in, timed, start, &stop)
		}()
	}
	for _, b := range in.timed(timed) {
		t := time.Now()
		delta, err := sess.ApplyBatch(ctx, b)
		p.apply = append(p.apply, time.Since(t))
		if err != nil {
			p.failedWrites++
			continue
		}
		p.updates += len(b)
		p.deltaMarks += delta.Size()
	}
	p.wall = time.Since(start)
	stop.Store(true)
	wg.Wait()

	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	p.memDelta = memDelta{
		allocBytes: end.TotalAlloc - before.TotalAlloc,
		allocs:     end.Mallocs - before.Mallocs,
		gcCycles:   end.NumGC - before.NumGC,
		gcPause:    time.Duration(end.PauseTotalNs - before.PauseTotalNs),
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.heapLive = float64(int64(after.HeapAlloc)-int64(heapBase)) / (1 << 20)

	sub.Cancel()
	<-watchDone
	p.watchDropped = sub.Dropped()

	p.net = sess.Stats().Sub(netStart)
	if c != nil {
		p.frameSteady = c.FrameBytes() - frameStart
	}
	p.siteCalls = sum64(sess.SiteCalls()) - callsStart
	p.store = sess.StorageStats()
	p.rounds = sess.Journal().Rounds
	return p, nil
}

// readLoop is the open-loop reader: read i is due at start + i·period
// and is timed from its due time, so a stalled read also charges the
// reads queued behind it. It runs until stop is set.
func readLoop(sp spec, sess *session.Session, in *inputs, timed int, start time.Time, stop *atomic.Bool) ([]readSample, int) {
	expect := int(float64(timed) / sp.BatchesPerSec * readRate * 2)
	out := make([]readSample, 0, expect+64)
	failed := 0
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * readPeriod)
		if !waitUntil(due, stop) {
			return out, failed
		}
		r := &in.reads[i%len(in.reads)]
		t0 := time.Now()
		sn := sess.Snapshot()
		t1 := time.Now()
		var ok bool
		switch r.op {
		case opTuple:
			ok = checkTuple(sn.Query(session.ByTuple(r.ids...)), r.ids)
		case opRule:
			ok = checkRule(sn.Query(session.ByRule(r.rule), session.Limit(ruleLimit)), r.rule)
		case opCount:
			ok = len(sn.Count()) <= len(in.rules)
		case opMeasures:
			m := sn.Measures()
			ok = m.ViolatingTuples <= m.Rows && m.Marks >= m.ViolatingTuples
		}
		end := time.Now()
		out = append(out, readSample{op: r.op, lat: end.Sub(due), svc: end.Sub(t0), late: t0.Sub(due), snap: t1.Sub(t0)})
		if !ok {
			failed++
		}
	}
}

// waitUntil sleeps until shortly before due and spins the rest: on a
// 2-core host a sleeping goroutine woke 0.6 ms late at the median and
// 1.0 ms late at p90 (600 sleeps at the reader's rate), so the margin
// covers most wake-ups. It reports false once stop is set.
func waitUntil(due time.Time, stop *atomic.Bool) bool {
	const margin = 1500 * time.Microsecond
	for {
		if stop.Load() {
			return false
		}
		rem := time.Until(due)
		switch {
		case rem <= 0:
			return true
		case rem > margin:
			time.Sleep(rem - margin)
		default:
			runtime.Gosched()
		}
	}
}

// checkTuple validates a ByTuple answer: at most the requested ids,
// ascending, each one requested.
func checkTuple(res []session.Violation, ids []relation.TupleID) bool {
	if len(res) > len(ids) {
		return false
	}
	for i, v := range res {
		if i > 0 && res[i-1].Tuple >= v.Tuple || len(v.Rules) == 0 {
			return false
		}
		found := false
		for _, id := range ids {
			found = found || id == v.Tuple
		}
		if !found {
			return false
		}
	}
	return true
}

// checkRule validates a ByRule+Limit answer: at most the limit,
// ascending, each result carrying exactly the queried rule.
func checkRule(res []session.Violation, rule string) bool {
	if len(res) > ruleLimit {
		return false
	}
	for i, v := range res {
		if i > 0 && res[i-1].Tuple >= v.Tuple || len(v.Rules) != 1 || v.Rules[0] != rule {
			return false
		}
	}
	return true
}

// heapBaseline forces a collection and returns the live heap.
func heapBaseline() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func sum64(xs []uint64) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

// medianFloat returns the median of xs (the lower middle for an even
// count, as median does).
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
