package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vertical"
)

// perLayerUnits lists every per-layer metric a traced run reports, with
// its unit. A metric that does not apply to a workload reads 0.
var perLayerUnits = map[string]string{
	"relation.normalize_us":              "us",
	"centralized.apply_us":               "us",
	"centralized.delta_marks_per_update": "count",
	"cfd.publish_us":                     "us",
	"cfd.violations":                     "count",
	"cfd.marks":                          "count",
	"session.snapshot_ns":                "ns",
	"session.query_tuple_us":             "us",
	"session.query_rule_us":              "us",
	"session.query_rule_p99_us":          "us",
	"session.count_us":                   "us",
	"session.measures_us":                "us",
	"session.watch_events":               "count",
	"session.watch_dropped":              "count",
	"apply_p90_ms":                       "ms",
	"read_p50_us":                        "us",
	"read_p99_us":                        "us",
	"bench.reader_late_ms":               "ms",
	"storage.tuples.hit_rate":            "ratio",
	"storage.groups.hit_rate":            "ratio",
	"storage.postings.hit_rate":          "ratio",
	"storage.faults_per_update":          "count",
	"storage.evictions_per_update":       "count",
	"storage.gets_per_update":            "count",
	"storage.puts_per_update":            "count",
	"storage.get_us_per_batch":           "us",
	"storage.put_us_per_batch":           "us",
	"storage.delete_us_per_batch":        "us",
	"storage.flush_ms_per_batch":         "ms",
	"storage.flushed_bytes_per_update":   "B",
	"storage.flushed_pages_per_batch":    "count",
	"storage.compactions":                "count",
	"storage.disk_mb":                    "MiB",
	"disk_write_bytes_per_update":        "B",
	"ship_bytes_per_update":              "B",
	"network.msgs_per_batch":             "count",
	"network.bytes_per_batch":            "B",
	"network.eqids_per_batch":            "count",
	"network.site_busy_ms_per_batch":     "ms",
	"network.site_busy_skew":             "ratio",
	"horizontal.apply_ms":                "ms",
	"vertical.apply_ms":                  "ms",
	"optimizer.plan_ms":                  "ms",
	"netwire.bootstrap_frame_mb":         "MiB",
	"netwire.frame_bytes_per_batch":      "B",
	"netwire.frame_overhead":             "ratio",
	"netwire.writes_per_batch":           "count",
	"netwire.write_us_per_batch":         "us",
	"netwire.read_wait_ms_per_batch":     "ms",
	"sitehost.calls_per_batch":           "count",
	"journal.rounds":                     "count",
	"journal.bytes_per_round":            "B",
	"journal.ms_per_batch":               "ms",
	"checkpoint.bytes_per_round":         "B",
	"checkpoint.ms_per_batch":            "ms",
	"runtime.alloc_bytes_per_update":     "B",
	"runtime.allocs_per_update":          "count",
	"runtime.gc_cycles":                  "count",
	"runtime.gc_pause_ms":                "ms",
	"error_rate":                         "ratio",
	"trace.apply_us_per_batch":           "us",
	"trace.other_us_per_batch":           "us",
	"trace.overhead_pct":                 "%",
	"trace.dropped_spans":                "count",
}

// tracedPhase is one traced write path's recording.
type tracedPhase struct {
	tr      *tracer
	roots   []span
	self    [][numLayers]int64
	updates int
	// journalBytes and ckptBytes are the bytes written under the
	// journal and checkpoint directories over the timed batches
	// (hor-tcp at full durability only).
	journalBytes, ckptBytes int64
}

// mean returns layer l's mean self time per batch.
func (tp *tracedPhase) mean(l layer) time.Duration {
	var s int64
	for _, st := range tp.self {
		s += st[l]
	}
	return time.Duration(s / int64(len(tp.self)))
}

// meanRoot returns the mean traced apply time per batch.
func (tp *tracedPhase) meanRoot() time.Duration {
	var s int64
	for _, r := range tp.roots {
		s += r.end - r.start
	}
	return time.Duration(s / int64(len(tp.roots)))
}

func (tp *tracedPhase) medianRoot() time.Duration {
	d := make([]time.Duration, len(tp.roots))
	for i, r := range tp.roots {
		d[i] = time.Duration(r.end - r.start)
	}
	return median(d)
}

// runTraced is the per-layer run. Phase A drives the workload's own
// session untraced (writer, reader, watcher) for the counters and the
// untraced apply time; phase B replays the same inputs through a write
// path rebuilt from public calls with every layer boundary timed.
func runTraced(sp spec, opt options, in *inputs) (*result, error) {
	or := newOracle(in)
	half := sp.phaseBatches(opt.Seconds, true)
	rounds, res, err := runRounds(sp, opt, in, or, 1, half)
	if err != nil {
		return nil, err
	}
	p := rounds[0].p
	m := map[string]float64{
		"cfd.violations": float64(rounds[0].v.tuples),
		"cfd.marks":      float64(rounds[0].v.marks),
	}
	sessionMetrics(m, p)

	var tps []*tracedPhase
	if sp.Kind == kindHorTCP {
		nT := min(half, max(half/3, 20))
		for _, dur := range []durability{durFull, durCheckpoint, durNone} {
			tp, err := traceSession(sp, opt, in, or, nT, dur)
			if err != nil {
				return nil, err
			}
			tps = append(tps, tp)
		}
	} else {
		tp, err := traceEngine(sp, opt, in, or, half)
		if err != nil {
			return nil, err
		}
		tps = append(tps, tp)
	}
	if err := layerMetrics(m, sp, tps, median(p.apply)); err != nil {
		return nil, err
	}
	if sp.Kind == kindVertical {
		plan, err := planTime(sp, in)
		if err != nil {
			return nil, err
		}
		m["optimizer.plan_ms"] = ms(plan)
	}
	m["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	for name, unit := range perLayerUnits {
		res.Metrics[name] = metric{m[name], unit}
	}
	if err := writeTrace(opt, sp, tps[0]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace table:", err)
	}
	return res, nil
}

// sessionMetrics derives the per-layer counters phase A measured.
func sessionMetrics(m map[string]float64, p *phase) {
	upd := float64(max(p.updates, 1))
	nb := float64(p.batches)
	m["centralized.delta_marks_per_update"] = float64(p.deltaMarks) / upd

	var lat, late []time.Duration
	var snap []time.Duration
	svc := make([][]time.Duration, numReadOps)
	for _, r := range p.reads {
		lat = append(lat, r.lat)
		late = append(late, r.late)
		snap = append(snap, r.snap)
		svc[r.op] = append(svc[r.op], r.svc)
	}
	m["apply_p90_ms"] = ms(quantile(p.apply, 0.9))
	m["read_p50_us"] = us(median(lat))
	m["read_p99_us"] = us(quantile(lat, 0.99))
	m["bench.reader_late_ms"] = ms(quantile(late, 0.99))
	m["session.snapshot_ns"] = float64(median(snap))
	m["session.query_tuple_us"] = us(median(svc[opTuple]))
	m["session.query_rule_us"] = us(median(svc[opRule]))
	m["session.query_rule_p99_us"] = us(quantile(svc[opRule], 0.99))
	m["session.count_us"] = us(median(svc[opCount]))
	m["session.measures_us"] = us(median(svc[opMeasures]))
	m["session.watch_events"] = float64(p.watchEvents)
	m["session.watch_dropped"] = float64(p.watchDropped)

	m["runtime.alloc_bytes_per_update"] = float64(p.memDelta.allocBytes) / upd
	m["runtime.allocs_per_update"] = float64(p.memDelta.allocs) / upd
	m["runtime.gc_cycles"] = float64(p.memDelta.gcCycles)
	m["runtime.gc_pause_ms"] = ms(p.memDelta.gcPause)

	m["ship_bytes_per_update"] = float64(p.net.Bytes) / upd
	m["network.msgs_per_batch"] = float64(p.net.Messages) / nb
	m["network.bytes_per_batch"] = float64(p.net.Bytes) / nb
	m["network.eqids_per_batch"] = float64(p.net.Eqids) / nb
	var busy, busyMax int64
	for _, b := range p.net.BusyNanos {
		busy += b
		busyMax = max(busyMax, b)
	}
	m["network.site_busy_ms_per_batch"] = float64(busy) / 1e6 / nb
	if busy > 0 {
		m["network.site_busy_skew"] = float64(busyMax) / (float64(busy) / float64(len(p.net.BusyNanos)))
	}

	m["netwire.bootstrap_frame_mb"] = float64(p.frameBoot) / (1 << 20)
	m["netwire.frame_bytes_per_batch"] = float64(p.frameSteady) / nb
	if p.net.Bytes > 0 {
		m["netwire.frame_overhead"] = float64(p.frameSteady) / float64(p.net.Bytes)
	}
	m["sitehost.calls_per_batch"] = float64(p.siteCalls) / nb
	m["journal.rounds"] = float64(p.rounds)

	if p.store != nil {
		var faults, evictions, flushedBytes, flushedPages, compactions uint64
		var disk int64
		for name, st := range p.store {
			s0 := p.storeStart[name]
			hits, misses := st.Hits-s0.Hits, st.Misses-s0.Misses
			if hits+misses > 0 {
				m["storage."+name+".hit_rate"] = float64(hits) / float64(hits+misses)
			}
			faults += st.Faults - s0.Faults
			evictions += st.Evictions - s0.Evictions
			flushedBytes += st.FlushedBytes - s0.FlushedBytes
			flushedPages += st.FlushedPages - s0.FlushedPages
			compactions += st.Compactions - s0.Compactions
			disk += st.DiskBytes
		}
		m["storage.faults_per_update"] = float64(faults) / upd
		m["storage.evictions_per_update"] = float64(evictions) / upd
		m["storage.flushed_bytes_per_update"] = float64(flushedBytes) / upd
		m["storage.flushed_pages_per_batch"] = float64(flushedPages) / nb
		m["storage.compactions"] = float64(compactions)
		m["storage.disk_mb"] = float64(disk) / (1 << 20)
		m["disk_write_bytes_per_update"] = float64(flushedBytes) / upd
	}
}

// layerMetrics derives the self-time metrics from the traced phases
// and checks that they add up: for every workload, the layer self
// times plus trace.other_us_per_batch equal trace.apply_us_per_batch.
func layerMetrics(m map[string]float64, sp spec, tps []*tracedPhase, untraced time.Duration) error {
	tp := tps[0]
	nb := float64(len(tp.roots))
	upd := float64(max(tp.updates, 1))
	dropped := float64(tp.tr.dropped.Load())
	m["trace.dropped_spans"] = dropped
	apply := us(tp.meanRoot())
	m["trace.apply_us_per_batch"] = apply
	m["trace.other_us_per_batch"] = us(tp.mean(lRoot))
	if untraced > 0 {
		m["trace.overhead_pct"] = 100 * (float64(tp.medianRoot())/float64(untraced) - 1)
	}
	m["relation.normalize_us"] = us(tp.mean(lNormalize))
	switch sp.Kind {
	case kindCentral, kindDisk:
		m["centralized.apply_us"] = us(tp.mean(lEngine))
		m["cfd.publish_us"] = us(tp.mean(lPublish))
		m["storage.get_us_per_batch"] = us(tp.mean(lStoreGet))
		m["storage.put_us_per_batch"] = us(tp.mean(lStorePut))
		m["storage.delete_us_per_batch"] = us(tp.mean(lStoreDelete))
		m["storage.flush_ms_per_batch"] = ms(tp.mean(lStoreFlush))
		if sp.Kind == kindDisk {
			m["storage.gets_per_update"] = float64(tp.tr.calls[lStoreGet].Load()) / upd
			m["storage.puts_per_update"] = float64(tp.tr.calls[lStorePut].Load()) / upd
		}
	case kindVertical:
		m["vertical.apply_ms"] = ms(tp.mean(lEngine))
		m["cfd.publish_us"] = us(tp.mean(lPublish))
	case kindHorTCP:
		// Journal and checkpoint run inside Session.ApplyBatch, daemon
		// side included, so they are attributed by ablation: the same
		// inputs with one layer switched off. Every span-derived part
		// (normalize, engine, wire, other) comes from the phase with
		// both off, so the parts add up to that phase's traced apply
		// time by span attribution; the two ablation differences
		// extend the sum to the full phase's apply time by
		// construction.
		full, ckpt, none := tp, tps[1], tps[2]
		m["relation.normalize_us"] = us(none.mean(lNormalize))
		m["trace.other_us_per_batch"] = us(none.mean(lRoot))
		m["horizontal.apply_ms"] = ms(none.mean(lEngine))
		m["checkpoint.ms_per_batch"] = ms(ckpt.meanRoot() - none.meanRoot())
		m["journal.ms_per_batch"] = ms(full.meanRoot() - ckpt.meanRoot())
		m["netwire.write_us_per_batch"] = us(none.mean(lNetWrite))
		m["netwire.read_wait_ms_per_batch"] = ms(none.mean(lNetRead))
		m["netwire.writes_per_batch"] = float64(none.tr.calls[lNetWrite].Load()) / nb
		m["journal.bytes_per_round"] = float64(full.journalBytes) / nb
		m["checkpoint.bytes_per_round"] = float64(full.ckptBytes) / nb
		m["disk_write_bytes_per_update"] = float64(full.journalBytes+full.ckptBytes) / upd
		dropped = float64(full.tr.dropped.Load() + ckpt.tr.dropped.Load() + none.tr.dropped.Load())
		m["trace.dropped_spans"] = dropped
	}
	sum := sumParts(m, traceParts(sp.Kind)) + m["trace.other_us_per_batch"]
	if dropped == 0 && math.Abs(sum-apply) > 0.01*apply+1 {
		return fmt.Errorf("layer self times add up to %.1fus, traced apply is %.1fus", sum, apply)
	}
	return nil
}

// traceParts names the layer metrics that, with
// trace.other_us_per_batch, add up to trace.apply_us_per_batch on a
// workload of the given kind.
func traceParts(kind string) []string {
	parts := []string{"relation.normalize_us"}
	switch kind {
	case kindCentral, kindDisk:
		return append(parts, "centralized.apply_us", "cfd.publish_us", "storage.get_us_per_batch",
			"storage.put_us_per_batch", "storage.delete_us_per_batch", "storage.flush_ms_per_batch")
	case kindVertical:
		return append(parts, "vertical.apply_ms", "cfd.publish_us")
	default:
		return append(parts, "horizontal.apply_ms", "checkpoint.ms_per_batch", "journal.ms_per_batch",
			"netwire.write_us_per_batch", "netwire.read_wait_ms_per_batch")
	}
}

// sumParts adds the named time metrics in microseconds.
func sumParts(m map[string]float64, parts []string) float64 {
	sum := 0.0
	for _, name := range parts {
		v := m[name]
		if perLayerUnits[name] == "ms" {
			v *= 1000
		}
		sum += v
	}
	return sum
}

// writer is the narrow engine surface the rebuilt write path drives.
type writer interface {
	ApplyBatch(relation.UpdateList) (*cfd.Delta, error)
	Violations() *cfd.Violations
}

// traceEngine rebuilds the write path of a centralized or vertical
// workload from public calls — UpdateList.Normalize, the engine's
// ApplyBatch, Violations().Publish() — and times each call; on
// cent-disk every Store call is timed too.
func traceEngine(sp spec, opt options, in *inputs, or *oracle, nT int) (*tracedPhase, error) {
	tr := newTracer(1 << 10)
	var eng writer
	switch sp.Kind {
	case kindCentral:
		c, err := stream.NewCentralized(in.rel, in.rules)
		if err != nil {
			return nil, err
		}
		eng = c
	case kindDisk:
		st, err := openStorage(filepath.Join(opt.WorkDir, "traced-store"), sp.CacheBudget, tr)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		c, err := stream.NewCentralizedStored(in.rel, in.rules, st)
		if err != nil {
			return nil, err
		}
		eng = c
	case kindVertical:
		det, err := core.NewVertical(in.rel, partition.RoundRobinVertical(in.rel.Schema, sp.Sites), in.rules,
			core.VerticalOptions{UseOptimizer: true})
		if err != nil {
			return nil, err
		}
		defer det.Cluster().Close()
		det.Cluster().SetMaxFanout(sp.MaxFanout)
		eng = det
	default:
		return nil, fmt.Errorf("traceEngine: workload kind %q", sp.Kind)
	}
	step := func(b relation.UpdateList) (span, error) {
		t0 := tr.now()
		norm := b.Normalize()
		t1 := tr.now()
		tr.record(lNormalize, t0, t1)
		if _, err := eng.ApplyBatch(norm); err != nil {
			return span{}, err
		}
		t2 := tr.now()
		tr.record(lEngine, t1, t2)
		eng.Violations().Publish()
		t3 := tr.now()
		tr.record(lPublish, t2, t3)
		return span{start: t0, end: t3, l: lRoot}, nil
	}
	tp, err := traceLoop(tr, in, nT, step)
	if err != nil {
		return nil, err
	}
	return tp, or.check(eng.Violations(), in.warm+nT)
}

// traceSession drives the hor-tcp session at one durability level with
// every site connection traced: UpdateList.Normalize, then
// Session.ApplyBatch. layerMetrics splits the session's time into
// engine, journal and checkpoint shares by comparing the levels.
func traceSession(sp spec, opt options, in *inputs, or *oracle, nT int, dur durability) (*tracedPhase, error) {
	tr := newTracer(1 << 10)
	dep, err := sp.deploy(opt.WorkDir, 100+int(dur), in.rel.Schema, dur, tr.dialer())
	if err != nil {
		return nil, err
	}
	defer dep.close()
	sess, _, err := dep.open(in)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	var fm fileMeter
	ctx := context.Background()
	step := func(b relation.UpdateList) (span, error) {
		t0 := tr.now()
		norm := b.Normalize()
		t1 := tr.now()
		tr.record(lNormalize, t0, t1)
		if _, err := sess.ApplyBatch(ctx, norm); err != nil {
			return span{}, err
		}
		t2 := tr.now()
		tr.record(lEngine, t1, t2)
		return span{start: t0, end: t2, l: lRoot}, nil
	}
	var jBytes, cBytes int64
	metered := step
	if dur == durFull {
		cdir, jdir := dep.dirs[0], dep.dirs[1]
		fm.written(jdir)
		fm.written(cdir)
		applied := 0
		metered = func(b relation.UpdateList) (span, error) {
			r, err := step(b)
			// After the root span ends: the directory scan is not
			// timed, and warm-up batches are not counted.
			j, c := fm.written(jdir), fm.written(cdir)
			if applied++; applied > in.warm {
				jBytes += j
				cBytes += c
			}
			return r, err
		}
	}
	tp, err := traceLoop(tr, in, nT, metered)
	if err != nil {
		return nil, err
	}
	tp.journalBytes, tp.ckptBytes = jBytes, cBytes
	return tp, or.check(sess.Violations(), in.warm+nT)
}

// traceLoop applies the warm-up batches through step, sizes the span
// buffer from what they recorded, then applies the timed batches.
func traceLoop(tr *tracer, in *inputs, nT int, step func(relation.UpdateList) (span, error)) (*tracedPhase, error) {
	tr.reset()
	for _, b := range in.batches[:in.warm] {
		if _, err := step(b); err != nil {
			return nil, fmt.Errorf("traced warm-up: %w", err)
		}
	}
	var calls int64
	for i := range tr.calls {
		calls += tr.calls[i].Load()
	}
	tr.buf = make([]span, int(calls)*2*nT/in.warm+1024)
	tr.reset()
	tp := &tracedPhase{tr: tr, roots: make([]span, 0, nT)}
	for _, b := range in.timed(nT) {
		r, err := step(b)
		if err != nil {
			return nil, err
		}
		tp.roots = append(tp.roots, r)
		tp.updates += len(b)
	}
	tp.self = selfTimes(tp.roots, tr.spans())
	return tp, nil
}

// openStorage opens the three stores of an out-of-core centralized
// engine with the options session.WithStorageDir uses (see
// internal/session/storage.go), each wrapped in a tracedStore.
func openStorage(dir string, budget int64, tr *tracer) (centralized.Storage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return centralized.Storage{}, err
	}
	tb, gb := budget/2, budget*35/100
	pb := budget - tb - gb
	open := func(name string, o storage.DiskOptions) (storage.Store, error) {
		s, err := storage.OpenDisk(filepath.Join(dir, name), o)
		if err != nil {
			return nil, err
		}
		return tracedStore{Store: s, tr: tr}, nil
	}
	var st centralized.Storage
	var err error
	if st.Tuples, err = open("tuples.dat", storage.DiskOptions{
		PageFor: storage.Uint64Pager(relation.TupleKeyShift), CacheBudget: tb, Monotone: true, Kind: 'T'}); err != nil {
		return st, err
	}
	if st.Groups, err = open("groups.dat", storage.DiskOptions{
		PageFor: storage.FNVPager(centralized.GroupPagerBits), CacheBudget: gb, Kind: 'G'}); err != nil {
		st.Close()
		return st, err
	}
	if st.Postings, err = open("post.dat", storage.DiskOptions{
		PageFor: cfd.PostPager, CacheBudget: pb, Monotone: true, Kind: 'P'}); err != nil {
		st.Close()
		return st, err
	}
	return st, nil
}

// planTime is the median wall time of vertical.PlanFor on the
// workload's rules and scheme.
func planTime(sp spec, in *inputs) (time.Duration, error) {
	scheme := partition.RoundRobinVertical(in.rel.Schema, sp.Sites)
	var times []time.Duration
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := vertical.PlanFor(in.rules, scheme, vertical.Options{UseOptimizer: true}); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t))
	}
	return median(times), nil
}

// fileMeter measures bytes written under a directory between calls: a
// file that grew counts its growth, a new or rewritten (shrunk) file
// counts its whole size.
type fileMeter struct{ sizes map[string]int64 }

func (f *fileMeter) written(dir string) int64 {
	if f.sizes == nil {
		f.sizes = make(map[string]int64)
	}
	var n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		size := info.Size()
		if prev, ok := f.sizes[path]; ok && size >= prev {
			n += size - prev
		} else {
			n += size
		}
		f.sizes[path] = size
		return nil
	})
	return n
}

// writeTrace writes the traced phase's per-batch layer self times (µs)
// as CSV under opt.TraceDir, once, after the run.
func writeTrace(opt options, sp spec, tp *tracedPhase) error {
	if opt.TraceDir == "" {
		return nil
	}
	if err := os.MkdirAll(opt.TraceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(opt.TraceDir, fmt.Sprintf("%s-seed%d.csv", sp.Name, opt.Seed)))
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "batch,apply,other,publish,normalize,engine,net_read,net_write,store_get,store_put,store_delete,store_flush")
	for i, r := range tp.roots {
		fmt.Fprintf(f, "%d,%.1f", i, float64(r.end-r.start)/1e3)
		for l := layer(0); l < numLayers; l++ {
			fmt.Fprintf(f, ",%.1f", float64(tp.self[i][l])/1e3)
		}
		fmt.Fprintln(f)
	}
	return f.Close()
}
