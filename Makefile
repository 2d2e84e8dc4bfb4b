# Tier-1 gate (see ROADMAP.md): every PR must leave `make check` green.
.PHONY: check build test vet race bench chaos errgate fmtgate plugate shedgate ctrgate armgate tiergate trace bench-json bench-parallel bench-batch

check: vet errgate fmtgate plugate shedgate ctrgate armgate tiergate build race

# Formatting gate: the tree must be gofmt-clean.
fmtgate:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmtgate: gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# Swallowed-device-error gate: demand-path device accesses must never
# discard their error (the pre-fix `_ = f.v.dev.Access(...)` pattern).
errgate:
	@! grep -rn '_ = .*dev\.Access' --include='*.go' . \
		|| (echo 'errgate: swallowed device error (handle or propagate it)'; exit 1)

# Plug-API gate: the kernel's read paths must submit device I/O through
# the plug layer (blockdev.Plug), never against the device directly —
# that is what keeps plugged and passthrough modes byte-identical in
# accounting. Writes are exempt by design (see internal/vfs/writeback.go).
plugate:
	@! grep -n 'dev\.Access[A-Za-z]*(' \
		internal/vfs/vfs.go internal/vfs/io.go internal/vfs/crossos.go internal/vfs/mmap.go \
		internal/vfs/ring.go \
		|| (echo 'plugate: read-path device access outside the plug API'; exit 1)

# Shed-sentinel gate: every shed/deadline refusal on the ring path must
# be one of the exported sentinels (vfs.ErrShed, vfs.ErrDeadlineExceeded)
# so callers can errors.Is-dispatch on them — no ad-hoc errors.New in the
# overload path. The `var Err` declarations ARE the sentinels.
shedgate:
	@! grep -n 'errors\.New' \
		internal/vfs/ring.go internal/vfs/pressure.go internal/crosslib/ring.go \
		| grep -v 'var Err' \
		|| (echo 'shedgate: ad-hoc errors.New on the ring shed/deadline path (use the exported sentinels)'; exit 1)

# Counter-export gate: every Ctr*/Outcome*/Hist* constant declared in
# telemetry.go must appear both in the identifier-indexed export name
# table (telemetry.go, `CtrFoo: "foo"`) and in the Prometheus writer's
# help tables (prometheus.go) — a counter nobody can scrape is a counter
# that silently rots.
ctrgate:
	@missing=0; \
	for c in $$(grep -oE '^	(Ctr|Outcome|Hist)[A-Za-z0-9]+' internal/telemetry/telemetry.go | tr -d '\t' | sort -u); do \
		grep -qE "\b$$c:" internal/telemetry/telemetry.go \
			|| { echo "ctrgate: $$c missing from the export name table (telemetry.go)"; missing=1; }; \
		grep -qE "\b$$c\b" internal/telemetry/prometheus.go \
			|| { echo "ctrgate: $$c missing from the Prometheus help tables (prometheus.go)"; missing=1; }; \
	done; \
	exit $$missing

# Arm-export gate: every registered predictor arm must surface, by name,
# in the telemetry export table (snapshot Arms map + Prometheus arm=""
# label series) and in the /predictors admin legend. The export and
# admin sides iterate the arm registry programmatically, so the gate is
# a pair of negative-tested conformance tests rather than a source grep
# — each proves its check rejects a missing arm before accepting the
# real registry.
armgate:
	go test -run 'TestArmGate' ./internal/telemetry ./internal/admin

# Stack-API gate: the kernel's read paths must address I/O through the
# device stack (striping + tier resolution), never a raw member device —
# reaching past the stack would skip residency tracking and per-backend
# accounting. The Device() accessor in compat.go IS the one sanctioned
# member access (tests may also use it).
tiergate:
	@! grep -rn '\.Member(' internal/vfs --include='*.go' \
		| grep -v 'internal/vfs/compat\.go' | grep -v '_test\.go' \
		|| (echo 'tiergate: raw stack-member access on a kernel path (go through blockdev.Stack)'; exit 1)

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Fault-plan sweep under the race detector: the chaos harness plus every
# fault-injection, retry/backoff, and circuit-breaker test.
chaos:
	go test -race -run 'Chaos|Fault|Breaker|Retry|Inject|Transient|Poison|Dirty' ./...

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
