package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/harness"
)

// BENCH_storage.json is the out-of-core baseline: the disk-backed
// centralized engine ingests a relation far beyond its page-cache
// budget and then runs an incremental batch sweep, with the maintained
// violation set asserted bit-identical to the in-memory engine at every
// measured row — the sweep fails before emitting anything otherwise, so
// the committed file is proof the storage subsystem pages state without
// changing semantics. The state columns (|D|, ∆V, |V|, marks) are
// deterministic in the seed; cache counters (deterministic too, but a
// property of the cache, not of the semantics) and timings are
// informational and skipped by -verify.

// storageRow is one measured step of the baseline.
type storageRow struct {
	Phase      string `json:"phase"`
	Seq        int    `json:"seq"`
	Rows       int    `json:"rows"`
	DeltaMarks int    `json:"delta_marks"`
	Violations int    `json:"violations"`
	Marks      int    `json:"marks"`
}

// storageStatsRow is one store's informational counters.
type storageStatsRow struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Faults        uint64 `json:"faults"`
	Evictions     uint64 `json:"evictions"`
	FlushedPages  uint64 `json:"flushed_pages"`
	FlushedBytes  uint64 `json:"flushed_bytes"`
	Compactions   uint64 `json:"compactions"`
	ResidentBytes int64  `json:"resident_bytes"`
	DiskBytes     int64  `json:"disk_bytes"`
}

// storageBaseline is the file layout of BENCH_storage.json.
type storageBaseline struct {
	GeneratedBy string       `json:"generated_by"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	Workload    string       `json:"workload"`
	CacheBudget int64        `json:"cache_budget"`
	Rows        []storageRow `json:"rows"`
	// Informational only — never compared by -verify.
	Stats         map[string]storageStatsRow `json:"stats"`
	DiskBytes     int64                      `json:"disk_bytes"`
	ResidentBytes int64                      `json:"resident_bytes"`
	IngestSeconds float64                    `json:"ingest_seconds"`
	SweepSeconds  float64                    `json:"sweep_seconds"`
	// The in-memory twin's wall-clock over the same batches.
	MemoryIngestSeconds float64 `json:"memory_ingest_seconds"`
	MemorySweepSeconds  float64 `json:"memory_sweep_seconds"`
}

func storageRows(rows []harness.StorageRow) []storageRow {
	out := make([]storageRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, storageRow{
			Phase: r.Phase, Seq: r.Seq, Rows: r.Rows,
			DeltaMarks: r.DeltaMarks, Violations: r.Violations, Marks: r.Marks,
		})
	}
	return out
}

func writeStorageBaseline(path string, sc harness.Scale, run *harness.StorageRun) error {
	k := run.Knobs
	base := storageBaseline{
		GeneratedBy: "expbench -storage",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Workload: fmt.Sprintf("TPCH-like seed=%d rows=%d chunk=%d batches=%d×%d |Σ|=%d",
			sc.Seed, k.Rows, k.ChunkSize, k.Batches, k.BatchSize, k.NumRules),
		CacheBudget:   k.CacheBudget,
		Rows:          storageRows(run.Rows),
		Stats:         make(map[string]storageStatsRow, len(run.Stats)),
		DiskBytes:     run.DiskBytes,
		ResidentBytes: run.ResidentBytes,
		IngestSeconds: run.IngestSeconds,
		SweepSeconds:  run.SweepSeconds,

		MemoryIngestSeconds: run.MemoryIngestSeconds,
		MemorySweepSeconds:  run.MemorySweepSeconds,
	}
	for name, st := range run.Stats {
		base.Stats[name] = storageStatsRow{
			Hits: st.Hits, Misses: st.Misses, Faults: st.Faults,
			Evictions: st.Evictions, FlushedPages: st.FlushedPages,
			FlushedBytes: st.FlushedBytes, Compactions: st.Compactions,
			ResidentBytes: st.ResidentBytes, DiskBytes: st.DiskBytes,
		}
	}
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(base.Rows))
	return nil
}

// runStorageMode executes expbench -storage: the out-of-core sweep
// feeds the stdout table and the committed baseline.
func runStorageMode(path string, sc harness.Scale, k harness.StorageKnobs) error {
	run, err := harness.RunStorage(sc, k)
	if err != nil {
		return err
	}
	fmt.Println(harness.StorageResult(run).Format())
	return writeStorageBaseline(path, sc, run)
}
