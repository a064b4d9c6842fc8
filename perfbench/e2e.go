package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/session"
)

// round is one fresh session driven through the timed batches.
type round struct {
	setup time.Duration
	p     *phase
	fp    string
	v     struct{ tuples, marks int }
}

// runRounds opens a fresh session `rounds` times and drives each one
// through the same warm-up and timed batches, checking its V after
// each. Timings vary more between sessions than within one, so a run
// reports figures over several rounds.
func runRounds(sp spec, opt options, in *inputs, or *oracle, rounds, timed int) ([]round, *result, error) {
	// The oracle memoizes the V it computes; computing it before the
	// baseline keeps that copy out of every round's heap_live_mb.
	if _, err := or.after(in.warm + timed); err != nil {
		return nil, nil, err
	}
	base := heapBaseline()
	res := &result{Metrics: map[string]metric{}, Correct: true}
	var out []round
	for i := 0; i < rounds; i++ {
		r, err := driveRound(sp, opt, in, or, i, timed, base, res)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, r)
	}
	res.fingerprint = out[0].fp
	fmt.Fprintln(os.Stderr, "perfbench:", res.fingerprint)
	for _, r := range out[1:] {
		if r.fp != out[0].fp {
			fmt.Fprintln(os.Stderr, "perfbench: rounds did different work:", r.fp)
			res.Failed++
			res.Correct = false
		}
	}
	return out, res, nil
}

// driveRound opens the i-th session of a run, drives it and checks it.
func driveRound(sp spec, opt options, in *inputs, or *oracle, i, timed int, heapBase uint64, res *result) (round, error) {
	dep, err := sp.deploy(opt.WorkDir, i, in.rel.Schema, durFull, nil)
	if err != nil {
		return round{}, err
	}
	defer dep.close()
	sess, setup, err := dep.open(in)
	if err != nil {
		return round{}, fmt.Errorf("open: %w", err)
	}
	defer sess.Close()
	p, err := drive(sp, sess, in, timed, heapBase)
	if err != nil {
		return round{}, err
	}
	tally(res, p, gate(sp, in, or, sess, in.warm+timed))
	r := round{setup: setup, p: p, fp: fingerprint(sp, opt, in, p, sess)}
	v := sess.Violations()
	r.v.tuples, r.v.marks = v.Len(), v.Marks()
	return r, nil
}

// runEndToEnd is the untraced run: it reports every end-to-end metric.
func runEndToEnd(sp spec, opt options, in *inputs) (*result, error) {
	rounds, res, err := runRounds(sp, opt, in, newOracle(in), sp.Setups, sp.phaseBatches(opt.Seconds, false))
	if err != nil {
		return nil, err
	}
	// Each bounded figure is the median of the rounds' own figures, so
	// one round that a noisy moment slowed down does not move it.
	var setups, p50s, apply, lat []time.Duration
	var heap, rate []float64
	for _, r := range rounds {
		setups = append(setups, r.setup)
		p50s = append(p50s, median(r.p.apply))
		apply = append(apply, r.p.apply...)
		for _, s := range r.p.reads {
			lat = append(lat, s.lat)
		}
		heap = append(heap, r.p.heapLive)
		rate = append(rate, float64(r.p.updates)/r.p.wall.Seconds())
	}

	m := res.Metrics
	m["setup_s"] = metric{median(setups).Seconds(), "s"}
	m["apply_p50_ms"] = metric{ms(median(p50s)), "ms"}
	m["updates_per_s"] = metric{medianFloat(rate), "1/s"}
	m["heap_live_mb"] = metric{medianFloat(heap), "MiB"}
	// Reported per layer, not bounded: see WORKLOADS.md. These pool
	// the rounds' samples.
	fmt.Fprintf(os.Stderr, "perfbench: apply_p90_ms %.3f, reads %d, read_p50_us %.1f, read_p99_us %.1f\n",
		ms(quantile(apply, 0.9)), len(lat), us(median(lat)), us(quantile(lat, 0.99)))
	return res, nil
}

// gate is the correctness check after a driven phase: V must equal
// centralized.Detect over the relation the same k batches produce, and
// a disk-backed V must be bit-identical to the in-memory engine's.
func gate(sp spec, in *inputs, or *oracle, sess *session.Session, k int) error {
	if err := or.check(sess.Violations(), k); err != nil {
		return err
	}
	if sp.Kind == kindDisk {
		return checkInMemory(in, sess.Violations(), k)
	}
	return nil
}

// tally adds a driven phase to the result's counters: attempted counts
// writes, reads and the correctness gate; a failure of any of them
// counts as failed and clears correct.
func tally(res *result, p *phase, gateErr error) {
	res.Attempted += int64(p.batches + len(p.reads) + 1)
	res.Failed += int64(p.failedWrites + p.failedReads)
	if gateErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", gateErr)
		res.Failed++
	}
	if p.failedReads > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d reads returned malformed answers\n", p.failedReads)
	}
	res.Correct = res.Failed == 0
}

// fingerprint renders the run's input hash and deterministic work
// counters: two runs at one seed (and one --seconds) print the same
// line, and so does every round of one run.
func fingerprint(sp spec, opt options, in *inputs, p *phase, sess *session.Session) string {
	var flushedBytes, flushedPages uint64
	for name, st := range p.store {
		flushedBytes += st.FlushedBytes - p.storeStart[name].FlushedBytes
		flushedPages += st.FlushedPages - p.storeStart[name].FlushedPages
	}
	v := sess.Violations()
	return fmt.Sprintf("fingerprint workload=%s seed=%d batches=%d input=%s msgs=%d bytes=%d eqids=%d delta_marks=%d flushed_bytes=%d flushed_pages=%d violations=%d marks=%d v=%016x",
		sp.Name, opt.Seed, p.batches, in.hash, p.net.Messages, p.net.Bytes, p.net.Eqids, p.deltaMarks,
		flushedBytes, flushedPages, v.Len(), v.Marks(), v.Fingerprint())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
