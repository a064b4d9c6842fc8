# Developer entry points. CI runs the same commands.

GO ?= go

.PHONY: test race bench bench-smoke stream storage storage-bench coalesce net recovery query chaos driver-chaos bench-verify profile fuzz api apicheck verify clean

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -short -race ./...

# bench runs the hot-path micro benchmarks once (allocation counts are
# deterministic; timing needs more iterations — drop -benchtime for
# real measurements) and regenerates the committed perf baseline.
# Always finishes with clean so no compiled test binary is left behind.
bench:
	$(GO) test -bench 'BenchmarkCentralizedDetect|BenchmarkCentralizedIncrementalApply|BenchmarkUnitUpdate' \
		-benchmem -run '^$$' -benchtime 1x .
	$(GO) run ./cmd/expbench -json
	@$(MAKE) --no-print-directory clean

# bench-smoke runs the repo benchmark's own smoke test. perfbench is a
# separate module (it builds the program from this checkout), so the
# root `go test ./...` never reaches it.
bench-smoke:
	cd perfbench && $(GO) test ./...

# stream regenerates the streaming-pipeline baseline (BENCH_stream.json).
stream:
	$(GO) run ./cmd/expbench -stream

# storage runs the out-of-core suite under the race detector: the
# storage-package disk/memory differential, the stored relation,
# postings and engine oracles, and the session-level eviction-churn
# oracle (tiny page-cache budgets; every round faults and evicts).
# -short caps the seed count; drop it locally for all 20 seeds.
storage:
	$(GO) test -race -short ./internal/storage/
	$(GO) test -race -short -run 'TestStored|TestIDsCache|TestStorageOption' \
		./internal/relation/ ./internal/cfd/ ./internal/centralized/ ./internal/session/
	$(GO) test -race -run 'TestRunStorageQuick' ./internal/harness/

# storage-bench regenerates the out-of-core baseline
# (BENCH_storage.json: disk-backed vs in-memory engine over the same
# updates, V asserted bit-identical at every measured row). Scale up
# with `go run ./cmd/expbench -storage -storage.rows 10000000` for the
# paper-scale ingest.
storage-bench:
	$(GO) run ./cmd/expbench -storage

# coalesce regenerates the batch-grouped protocol baseline
# (BENCH_coalesce.json: per-update vs coalesced wire meters).
coalesce:
	$(GO) run ./cmd/expbench -coalesce

# net regenerates the real-socket deployment baseline (BENCH_net.json:
# loopback vs framed-TCP wire meters — asserted identical — plus the
# physical framing overhead).
net:
	$(GO) run ./cmd/expbench -net

# recovery regenerates the crash-recovery baseline (BENCH_recovery.json:
# cold-start vs warm-restart call/record counts on the checkpointed TCP
# deployment — the sweep asserts warm strictly cheaper than cold and the
# recovered V correct).
recovery:
	$(GO) run ./cmd/expbench -recovery

# query regenerates the read-contention baseline (BENCH_query.json:
# session state after the idle/churn/burst phases of the
# reader-vs-writer sweep — the sweep asserts read p99 under churn stays
# within a constant factor of idle before emitting a row).
query:
	$(GO) run ./cmd/expbench -query

# chaos runs the fault-injection suite under the race detector: the
# 20-seed crash-recovery oracle (drops, duplicates, truncations,
# partitions, in-process kill-restarts) plus the driver-replay and
# checkpoint-window regressions. -short skips the cross-process (sited
# child) cases; drop it for the full matrix.
chaos:
	$(GO) test -race -short ./internal/chaos/ ./internal/sitehost/

# driver-chaos runs the driver-side crash acceptance suite under the
# race detector at full seed count: the 20-seed driver-kill resume
# oracle (abandoned sessions reopened over the journal, interleaved
# with site kills and partitions) plus the cross-process SIGKILL oracle
# (this test binary re-executed as a real journaled driver, killed
# mid-batch and restarted against live daemons). V is asserted
# bit-identical to a fresh centralized detect after every step, with
# zero replayed wire calls on clean-boundary kills.
driver-chaos:
	$(GO) test -race -timeout 20m \
		-run 'TestDriverResumeOracle|TestCrossProcessDriverKillOracle' ./internal/chaos/
	$(GO) test -race -run 'TestJournal|TestInDoubt' ./internal/session/
	$(GO) test -race ./internal/journal/

# bench-verify remeasures every deterministic column of the committed
# baselines (BENCH_hotpath.json wire meters, BENCH_stream.json rows,
# BENCH_coalesce.json rows, BENCH_net.json rows, BENCH_recovery.json
# rows, BENCH_storage.json state rows — whose sweep also re-asserts
# disk/memory V bit-identity at every row — and BENCH_query.json state
# rows, whose sweep re-asserts the lock-free read-latency bound) and
# fails on drift. CI runs it, so wire-meter and read-path regressions
# are caught at PR time; intentional protocol changes regenerate with
# `make bench stream coalesce net recovery query storage-bench` and
# commit the diff.
bench-verify:
	$(GO) run ./cmd/expbench -verify

# profile writes CPU and heap profiles of one experiment sweep, so perf
# work starts from a pprof instead of a guess. Override PROFILE_EXP to
# target a different experiment (substring match, see expbench -exp).
PROFILE_EXP ?= Exp-coalesce
profile:
	$(GO) run ./cmd/expbench -quick -exp '$(PROFILE_EXP)' -cpuprofile cpu.prof -memprofile mem.prof
	@echo "inspect with: go tool pprof cpu.prof   (allocations: go tool pprof mem.prof)"

# fuzz is the native-fuzzing smoke CI runs: grouping-key round-trip,
# injectivity and hash consistency (seeded with the \x1f collision
# corpus), the TCP framing codec against adversarial headers, the
# storage page codec, the durable-log valid-prefix reader, and the
# stored group-record scanner and splice.
fuzz:
	$(GO) test -fuzz=FuzzAppendKey -fuzztime=10s -run '^$$' ./internal/relation
	$(GO) test -fuzz=FuzzFrame -fuzztime=10s -run '^$$' ./internal/netwire
	$(GO) test -fuzz=FuzzStorePage -fuzztime=10s -run '^$$' ./internal/storage
	$(GO) test -fuzz=FuzzWAL -fuzztime=10s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzGroupRecord -fuzztime=10s -run '^$$' ./internal/centralized

# api regenerates the committed API-surface lockfile; apicheck fails when
# the public repro surface (go doc -all) drifts from it, so façade changes
# are always an explicit, reviewed diff. CI runs apicheck.
api:
	$(GO) doc -all . > api/repro.txt

apicheck:
	@$(GO) doc -all . > /tmp/repro-api-check.txt
	@diff -u api/repro.txt /tmp/repro-api-check.txt \
		|| (echo "API surface drifted from api/repro.txt — review and run 'make api'"; exit 1)
	@echo "API surface matches api/repro.txt"

# clean removes compiled test binaries and profiles (e.g. a stray
# repro.test from `go test -c`) so the working tree stays tidy.
clean:
	rm -f *.test *.out *.prof
	find . -name '*.test' -type f -delete

verify: test race apicheck clean
