# Tier-1 gate (see ROADMAP.md): every PR must leave `make check` green.
.PHONY: check build test vet race bench chaos fmtgate shedgate armgate trace bench-json bench-parallel bench-batch

check: vet fmtgate shedgate armgate build race

# Formatting gate: the tree must be gofmt-clean.
fmtgate:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmtgate: gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# Shed-sentinel gate: every shed/deadline refusal on the ring path must
# be one of the exported sentinels (vfs.ErrShed, vfs.ErrDeadlineExceeded)
# so callers can errors.Is-dispatch on them — no ad-hoc errors.New in the
# overload path. The `var Err` declarations ARE the sentinels.
shedgate:
	@! grep -n 'errors\.New' \
		internal/vfs/ring.go internal/vfs/pressure.go internal/crosslib/ring.go \
		| grep -v 'var Err' \
		|| (echo 'shedgate: ad-hoc errors.New on the ring shed/deadline path (use the exported sentinels)'; exit 1)

# Arm-export gate: every registered predictor arm must surface, by name,
# in the telemetry export table (snapshot Arms map + Prometheus arm=""
# label series) and in the /predictors admin legend. The export and
# admin sides iterate the arm registry programmatically, so the gate is
# a pair of negative-tested conformance tests rather than a source grep
# — each proves its check rejects a missing arm before accepting the
# real registry.
armgate:
	go test -run 'TestArmGate' ./internal/telemetry ./internal/admin

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Fault-plan sweep under the race detector: the chaos harness plus every
# fault-injection, retry/backoff, and circuit-breaker test; then a bounded
# smoke of each differential fuzz target (seed corpora live under
# testdata/fuzz and also run as plain tests in `check`).
chaos:
	go test -race -run 'Chaos|Fault|Breaker|Retry|Inject|Transient|Poison|Dirty' ./...
	go test -run '^$$' -fuzz '^FuzzFillSyntheticAt$$' -fuzztime=10s ./internal/fs
	go test -run '^$$' -fuzz '^FuzzSharedCopyRange$$' -fuzztime=10s ./internal/bitmap
	go test -run '^$$' -fuzz '^FuzzStackWidthOneVsDevice$$' -fuzztime=10s ./internal/blockdev
	go test -run '^$$' -fuzz '^FuzzReadPathsAgree$$' -fuzztime=10s ./internal/vfs

bench:
	go test -bench=. -benchmem -run=^$$

# Span-tracing demo: run the fig5 microbenchmark grid with every operation
# traced, write trace.json (load it at ui.perfetto.dev), and print the
# critical-path report for the retained slow spans.
trace:
	go run ./cmd/crossbench -exp fig5 -quick -trace trace.json -trace-report

# Archive benchmark numbers (ns/op, allocs/op, pages/s) as JSON for
# cross-PR diffing.
bench-json:
	go run ./cmd/benchjson -out BENCH_PR3.json

# Parallel-scalability sweep: the real-concurrency benchmarks across
# GOMAXPROCS 1..8, appended to BENCH_PR4.json (which also holds the
# pre-sharding `baseline-singlelock` records for comparison).
bench-parallel:
	go run ./cmd/benchjson -out BENCH_PR4.json -append -label sharded \
		-bench 'BenchmarkParallel' -pkg . -cpu 1,2,4,8

# Block-scheduler sweep: plug off vs queue depths 1/8/32 on sequential,
# strided, and shared-file multi-stream workloads (device command counts
# as custom metrics), plus the warm-read path's allocs/op guard.
bench-batch:
	go run ./cmd/benchjson -out BENCH_PR5.json -label plug-sweep \
		-bench 'BenchmarkBatch' -pkg . -benchtime 3x
	go run ./cmd/benchjson -out BENCH_PR5.json -append -label warm-read \
		-bench 'BenchmarkTraceOffReadAt' -pkg .
