package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/workload"
)

// inputs are everything a run feeds the program, generated from the
// seed before any timing.
type inputs struct {
	rel     *relation.Relation
	rules   []cfd.CFD
	batches []relation.UpdateList // warm-up first, then the timed batches
	warm    int
	reads   []readInput
	// hash fingerprints all of the above.
	hash string
}

// readOp is one kind of read in the reader's mix.
type readOp uint8

const (
	opTuple readOp = iota
	opRule
	opCount
	opMeasures
	numReadOps
)

// readInput is one scheduled read; the reader cycles through them.
type readInput struct {
	op   readOp
	ids  []relation.TupleID // opTuple
	rule string             // opRule
}

// datasetSeed seeds the generator D and Σ are drawn from.
const datasetSeed = 1

// readTable is the number of distinct pre-generated reads; the reader
// cycles through them.
const readTable = 4096

// generate builds the workload's base relation and rule set, and from
// seed the warm-up plus timed Churn batches (70% inserts) and, on a
// workload with a reader, the reader's inputs.
func generate(sp spec, seed int64, timed int) *inputs {
	warm := sp.warmBatches(timed)
	total := warm + timed
	// D and Σ are the workload's dataset: they come from a fixed
	// generator seed and size hint, and --seed draws the update stream
	// and the reads. Timings then differ between seeds by what the
	// stream does, not by which dataset a seed happened to draw, and
	// traced and untraced runs see the same dataset.
	gen := workload.NewSized(workload.TPCH, datasetSeed, 2*sp.Rows)
	rules := gen.Rules(sp.Rules)
	rel := gen.Relation(sp.Rows)
	st := workload.NewStream(gen, rel, workload.StreamConfig{
		Profile:   workload.Churn,
		BatchSize: sp.BatchSize,
		Batches:   total,
		InsFrac:   0.7,
		Seed:      seed,
	})
	in := &inputs{rel: rel, rules: rules, warm: warm}
	for _, b := range st.Collect() {
		in.batches = append(in.batches, b.Updates)
	}

	if sp.Reader {
		in.reads = genReads(rel, rules, seed)
	}
	in.hash = fingerprintInputs(in)
	return in
}

// genReads draws the reader's inputs from seed.
func genReads(rel *relation.Relation, rules []cfd.CFD, seed int64) []readInput {
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	ids := rel.IDs()
	// ByRule queries visit every rule equally often, in a seeded order,
	// so the mix does not hinge on which rules a seed happens to draw.
	order := rng.Perm(len(rules))
	nextRule := 0
	reads := make([]readInput, readTable)
	for i := range reads {
		r := readInput{op: readMix[i%len(readMix)]}
		switch r.op {
		case opTuple:
			r.ids = make([]relation.TupleID, tuplesPerLookup)
			for j := range r.ids {
				r.ids[j] = ids[rng.Intn(len(ids))]
			}
		case opRule:
			r.rule = rules[order[nextRule%len(order)]].ID
			nextRule++
		}
		reads[i] = r
	}
	return reads
}

// timed returns the first n timed batches.
func (in *inputs) timed(n int) []relation.UpdateList {
	return in.batches[in.warm : in.warm+n]
}

// fingerprintInputs hashes rules, base relation, batches and reads.
func fingerprintInputs(in *inputs) string {
	h := sha256.New()
	for _, r := range in.rules {
		writeString(h, r.String())
	}
	in.rel.Each(func(t relation.Tuple) bool {
		writeTuple(h, t)
		return true
	})
	for _, b := range in.batches {
		writeInt(h, int64(len(b)))
		for _, u := range b {
			writeInt(h, int64(u.Kind))
			writeTuple(h, u.Tuple)
		}
	}
	for _, r := range in.reads {
		writeInt(h, int64(r.op))
		for _, id := range r.ids {
			writeInt(h, int64(id))
		}
		writeString(h, r.rule)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func writeTuple(h hash.Hash, t relation.Tuple) {
	writeInt(h, int64(t.ID))
	for _, v := range t.Values {
		writeString(h, v)
	}
}

func writeInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func writeString(h hash.Hash, s string) {
	writeInt(h, int64(len(s)))
	h.Write([]byte(s))
}
