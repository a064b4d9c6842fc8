package main

import (
	"fmt"
	"time"
)

// Engine kinds a workload can drive.
const (
	kindCentral  = "central"
	kindDisk     = "disk"
	kindHorTCP   = "hor-tcp"
	kindVertical = "vertical"
)

// spec pins one workload: everything that decides its inputs and the
// session it opens. Why each workload exists is in BENCHMARK.json and
// WORKLOADS.md. The batch count of a run is BatchesPerSec × seconds,
// so the amount of work is a pure function of (workload, seconds) and a
// faster program finishes sooner instead of doing more work; on the
// reference machine (2 cores) a timed phase takes about --seconds.
type spec struct {
	Name string
	Kind string

	Rows      int // |D| of the base relation
	Rules     int // |Σ|
	BatchSize int // updates per ∆D (Churn, 70% inserts)
	Sites     int // distributed workloads only

	// BatchesPerSec sizes the timed phase (see above); MinBatches
	// keeps at least ten samples beyond apply_p90_ms.
	BatchesPerSec float64
	MinBatches    int

	// Reader runs the open-loop reader beside the writer.
	Reader bool

	// CacheBudget is the page-cache budget of the disk workload.
	CacheBudget int64
	// MaxFanout caps the vertical scatter/gather workers.
	MaxFanout int

	// Setups is how many fresh sessions (rounds) an untraced run
	// opens, times and drives; setup_s is their median.
	Setups int
}

// readRate is the open-loop reader's schedule in reads per second.
const readRate = 120

// readMix is the reader's repeating operation sequence: 4 ByTuple
// lookups, 4 ByRule+Limit(50) queries, 1 Count, 1 Measures per 10 reads.
var readMix = [...]readOp{opTuple, opRule, opTuple, opRule, opTuple, opRule, opTuple, opRule, opCount, opMeasures}

// tuplesPerLookup is the number of ids in one ByTuple lookup.
const tuplesPerLookup = 4

// ruleLimit is the Limit of every ByRule query.
const ruleLimit = 50

var specs = []spec{
	{
		Name: "cent-rw", Kind: kindCentral,
		Rows: 50000, Rules: 50, BatchSize: 64,
		BatchesPerSec: 180, MinBatches: 120,
		Reader: true, Setups: 5,
	},
	{
		Name: "cent-disk", Kind: kindDisk,
		Rows: 5000, Rules: 50, BatchSize: 64,
		BatchesPerSec: 12, MinBatches: 120,
		CacheBudget: 1 << 20, Setups: 5,
	},
	{
		Name: "hor-tcp", Kind: kindHorTCP,
		Rows: 1000, Rules: 50, BatchSize: 256, Sites: 2,
		BatchesPerSec: 16, MinBatches: 120,
		Setups: 3,
	},
	{
		Name: "ver-loop", Kind: kindVertical,
		Rows: 20000, Rules: 50, BatchSize: 64, Sites: 8,
		BatchesPerSec: 120, MinBatches: 120,
		MaxFanout: 2, Setups: 3,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// timedBatches is the number of timed batches for a run of the given
// length.
func (sp spec) timedBatches(seconds float64) int {
	n := int(sp.BatchesPerSec*seconds + 0.5)
	if n < sp.MinBatches {
		n = sp.MinBatches
	}
	return n
}

// phaseBatches is the number of timed batches one session applies: a
// run splits its timed batches over sp.Setups rounds, a traced run
// gives half, but at least MinBatches, to the untraced session and as
// many to the traced path.
func (sp spec) phaseBatches(seconds float64, traced bool) int {
	n := sp.timedBatches(seconds)
	if traced {
		return max(n/2, sp.MinBatches)
	}
	return n / sp.Setups
}

// warmBatches is the untimed warm-up that precedes every timed phase.
func (sp spec) warmBatches(timed int) int {
	w := timed / 20
	if w < 4 {
		w = 4
	}
	return w
}

// readPeriod is the reader's schedule interval.
const readPeriod = time.Second / readRate
