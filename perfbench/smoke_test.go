package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// tiny shrinks a workload so a run takes a few seconds.
func tiny(sp spec) spec {
	sp.Rows = 300
	sp.BatchSize = min(sp.BatchSize, 32)
	sp.BatchesPerSec = 12
	sp.MinBatches = 12
	sp.Setups = 2
	return sp
}

// TestSmoke runs every workload once untraced and once traced at a
// tiny scale: the correctness gate must pass, every metric named in
// BENCHMARK.json must be emitted with its unit, the layer times must
// add up to the traced apply time, and a second run at the same seed
// must do identical work.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	if len(bf.PerLayer) != len(perLayerUnits) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark emits %d", len(bf.PerLayer), len(perLayerUnits))
	}
	for _, w := range bf.Workloads {
		sp, err := lookupSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		sp = tiny(sp)
		t.Run(sp.Name, func(t *testing.T) {
			opt := options{Seed: 3, Seconds: 1, WorkDir: t.TempDir()}
			res := runOK(t, sp, opt)
			expectMetrics(t, res, bf.EndToEnd)
			for _, e := range bf.EndToEnd {
				if v := res.Metrics[e.Name].Value; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", e.Name, v)
				}
			}
			again := runOK(t, sp, opt)
			if again.fingerprint != res.fingerprint {
				t.Errorf("same seed, different work:\n%s\n%s", res.fingerprint, again.fingerprint)
			}

			opt.Trace = true
			tr := runOK(t, sp, opt)
			expectMetrics(t, tr, bf.PerLayer)
			apply := tr.Metrics["trace.apply_us_per_batch"].Value
			sum := tr.Metrics["trace.other_us_per_batch"].Value
			for _, name := range traceParts(sp.Kind) {
				v := tr.Metrics[name].Value
				if tr.Metrics[name].Unit == "ms" {
					v *= 1000
				}
				sum += v
			}
			if apply <= 0 || math.Abs(sum-apply) > 0.01*apply {
				t.Errorf("layer times add up to %.1fus, traced apply is %.1fus", sum, apply)
			}
			if d := tr.Metrics["trace.dropped_spans"].Value; d != 0 {
				t.Errorf("%v spans dropped", d)
			}
		})
	}
}

func runOK(t *testing.T, sp spec, opt options) *result {
	t.Helper()
	res, err := run(sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// expectMetrics checks the result carries exactly the named metrics,
// each with its unit.
func expectMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case got.Unit != w.Unit:
			t.Errorf("metric %s unit %q, want %q", w.Name, got.Unit, w.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", w.Name, got.Value)
		}
	}
}
