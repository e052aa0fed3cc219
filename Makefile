# Build, verification, and telemetry targets for the Cooper reproduction.

GO ?= go

.PHONY: all build lint vet test test-shuffle race chaos audit journey-soak ci loc bench bench-smoke bench-parallel bench-recommend bench-approx bench-compare bench-shard bench-rematch snapshot clean

all: build

build:
	$(GO) build ./...

# lint fails on any file gofmt would rewrite, then vets the module.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# test-shuffle reruns the suite with test and subtest order randomized,
# flushing out inter-test state leaks (shared registries, package-level
# sinks) that a fixed order can hide.
test-shuffle:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suite under the race detector, three
# times over: the seeded 50-epoch soak plus every resilience regression
# (reaping, rejoin, deadlines, backoff, shutdown races). Repetition
# shakes out scheduling-dependent flakes the single-run suite would miss.
chaos:
	$(GO) test -race -count=3 ./internal/faults/
	$(GO) test -race -count=3 -run 'Chaos|Mute|Reap|Rejoin|Dial|Shutdown' ./internal/netproto/
	$(GO) test -race -count=3 ./cmd/cooperd/

# audit round-trips a real flight recording through the offline
# invariant auditor: cooper-sim writes a multi-epoch event log with
# -events-out, then cooper-replay replays it against the full invariant
# suite (stability, conservation, coverage, lifecycle, bracketing) and
# must exit zero. The in-process gates — the invariant suite run inside
# the chaos soaks — ride along via their test packages.
audit:
	$(GO) test -count=1 -run 'TestChaosSoak' ./internal/netproto/
	$(GO) test -count=1 -run 'TestEventLog|TestReplay' ./cmd/cooperd/ ./cmd/cooper-replay/
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/cooper-sim -trace -quick -epochs 5 -events-out "$$tmp/events.jsonl" >/dev/null && \
	$(GO) run ./cmd/cooper-replay "$$tmp/events.jsonl"

# journey-soak is the causal-tracing acceptance gate: a 50-epoch chaos
# soak (scheduled crashes and rejoins, live journey builder and auditor
# on one ring, tracing armed) under the race detector, asserting every
# registered agent yields a complete, gap-free journey with zero
# orphaned trace IDs, zero lifecycle violations, and byte-identical
# trace/span sequences across two same-seed runs.
journey-soak:
	$(GO) test -race -count=1 -run 'TestJourneySoak' ./cmd/cooperd/

# ci is the full verification gate: static checks, a clean build, the
# test suite under the race detector (plus a shuffled-order pass), the
# chaos suite, the flight-log audit round-trip, the journey/tracing
# soak, a one-iteration benchmark smoke run so benchmarks cannot
# bit-rot silently, the approximate-kernel recall/speedup gate, the
# sharded-market smoke gate, and the streaming-market repair gate.
ci: lint build race test-shuffle chaos audit journey-soak bench-smoke bench-approx bench-shard bench-rematch

# loc prints code-only lines per package — non-test files, with blank
# and comment-only lines left out — and their total: the counter ROADMAP
# asks every PR to report, so "less code" is a number and not an
# impression.
loc:
	@total=0; for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		files=$$(ls $$d/*.go | grep -v _test.go); \
		[ -n "$$files" ] || continue; \
		n=$$(cat $$files | grep -v '^\s*$$' | grep -vc '^\s*//'); \
		total=$$((total + n)); \
		printf '%7d  %s\n' $$n "$${d#$(CURDIR)/}"; \
	done; printf '%7d  total\n' $$total

bench:
	$(GO) test -bench=. -benchmem -run xxx .

# bench-smoke executes every benchmark in the module exactly once — a
# compile-and-run check, not a measurement. That includes
# BenchmarkClearUnsharded, the unsharded clear at n up to 20000, which
# reports B/op: a clear that builds anything agents×agents again shows
# up there as gigabytes (SMR at n=20000 allocates ~65 MB) or as an
# out-of-memory kill.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run xxx ./...

# bench-parallel runs the serial-vs-parallel pipeline benchmarks whose
# last snapshot is committed as BENCH_parallel.json.
bench-parallel:
	$(GO) test -bench 'ProfilingCampaign|EpochPipeline' -benchtime=1s -run xxx .

# bench-recommend benchmarks the flat prediction kernel against the
# retained reference kernel (single thread, n = 20/100/400), the
# LSH-bucketed approximate kernel against the flat one (n = 2000/5000),
# and refreshes the committed snapshot BENCH_recommend.json. Fails if the
# flat kernel's n=400 speedup drops below 2x or the approximate gate
# (below) fails.
bench-recommend:
	@$(GO) run ./cmd/bench-compare -recommend-only -recommend-out BENCH_recommend.json

# bench-approx is the approximate-kernel acceptance gate: top-10 recall
# against the exact kernel must stay at or above 0.95 at n=400, and the
# approximate kernel must clear at least a 5x speedup over the exact
# flat kernel at n=2000. Skips the n=5000 approx-only measurement leg so
# the gate stays CI-sized.
bench-approx:
	@$(GO) run ./cmd/bench-compare -approx-only

# bench-shard is the sharded-market smoke gate: shards=1 must reproduce
# the unsharded epoch report byte for byte, and at 5000 agents on a 4+
# core host the 8-shard market must clear an epoch faster than the
# all-pairs one. The full agents-vs-epoch-time sweep behind the
# committed BENCH_shard.json is `go run ./cmd/cooper-loadgen -out ...`.
bench-shard:
	@$(GO) run ./cmd/cooper-loadgen -verify
	@$(GO) run ./cmd/cooper-loadgen -gate

# bench-rematch is the streaming-market acceptance gate: at 5000 agents
# with 2% of the population churning per epoch, incremental neighborhood
# repair must clear each churn epoch at least 5x faster than a forced
# from-scratch re-match over the identical trace, and the repair leg's
# flight log must replay through the invariant auditor with zero
# violations. Refreshes the committed snapshot BENCH_rematch.json.
bench-rematch:
	@$(GO) run ./cmd/bench-compare -rematch-only -rematch-out BENCH_rematch.json

# bench-compare fails if the parallel pipeline regresses below its serial
# counterpart (beyond a 15% noise allowance). On a single-core host
# (GOMAXPROCS=1) parallel cannot beat serial, so the gate only checks that
# the fan-out machinery adds no meaningful overhead; on multi-core hosts
# it also demands a real speedup from the campaign leg.
bench-compare:
	@$(GO) run ./cmd/bench-compare

# snapshot runs the telemetry-enabled epoch benchmark and archives the
# machine-readable metrics snapshot at telemetry.json.
snapshot:
	COOPER_TELEMETRY_OUT=$(CURDIR)/telemetry.json \
		$(GO) test -bench 'BenchmarkEpochThroughputTelemetry' -benchtime 20x -run xxx .
	@echo wrote $(CURDIR)/telemetry.json

clean:
	rm -f telemetry.json
	$(GO) clean ./...
