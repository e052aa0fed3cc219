# Build, verification, and telemetry targets for the Cooper reproduction.

GO ?= go

.PHONY: all build lint vet test test-shuffle race chaos flake audit journey-soak ci loc bench bench-smoke fuzz-smoke bench-check clean

all: build

build:
	$(GO) build ./...

# lint fails on any file gofmt would rewrite, then vets the module and
# the benchmark's own module.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...

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

# chaos runs the fault-injection suites under the race detector, three
# times over: the injector's unit tests, netproto's seeded chaos soak and
# resilience regressions (mute agents, reaping, rejoin, dial backoff,
# shutdown races), and cooperd's fault-armed soaks. Three runs catch data
# races; make flake is the gate on scheduling-dependent event order.
chaos:
	$(GO) test -race -count=3 ./internal/faults/
	$(GO) test -race -count=3 -run 'Chaos|Mute|Reap|Rejoin|Dial|Shutdown' ./internal/netproto/
	$(GO) test -race -count=3 ./cmd/cooperd/

# flake is the gate on deterministic event order: the same-seed
# determinism and soak tests, 200 times plain and 50 times under the race
# detector, each at 1, 2, 4 and 8 Ps. The flight log has one writer, so
# a same-seed run reproduces the log byte for byte whatever the
# scheduler does; one divergence in 1,000 runs fails the target.
FLAKE_TESTS = ^(TestEventLogCompleteAndDeterministic|TestJourneySoak|TestEndToEndDeterministic)$$
flake:
	$(GO) test -count=200 -cpu 1,2,4,8 -run '$(FLAKE_TESTS)' ./cmd/cooperd/ ./cmd/cooper-trace/
	$(GO) test -race -count=50 -cpu 1,2,4,8 -run '$(FLAKE_TESTS)' ./cmd/cooperd/ ./cmd/cooper-trace/

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
# chaos suite, the event-order flake gate, the flight-log audit
# round-trip, the journey/tracing soak, a one-iteration benchmark smoke
# run so benchmarks cannot bit-rot silently, ten seconds each of fuzzing
# the flat prediction kernel against the reference, the wire codec
# against encoding/json, the class-count assessment against the
# pairwise count, the preference lists against their comparator-sort
# reference, the repair neighborhood against its full-sort reading, the
# count-level marriage against Gale–Shapley, the churn ledger against its ID-keyed reference, the
# auditor against arbitrary event streams and the one-pass dispatch
# against the pre-rewrite dispatcher, and the benchmark harness's
# own vet and tests.
# It carries no timing floor: behaviour is pinned by the tests, and
# timing is compared parent against change, workload by workload, by the
# pipeline that runs BENCHMARK.json (benchmark/README.md). Nothing it
# runs writes a tracked file.
ci: lint build race test-shuffle chaos flake audit journey-soak bench-smoke fuzz-smoke bench-check

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
# BenchmarkStreamRepair, streaming epochs at n=10000 over 32 shards with
# 1% churn, repair beside forced full clear, whose B/op and allocs/op are
# what TestStreamRepairEpochAllocation pins, and the same market repaired
# unsharded; internal/rematch BenchmarkNeighborhood, one repair
# neighborhood at a stream-sharded shard's shape (312 members, 6 dirty),
# a wire-stream shard's (125, 1) and the unsharded market's (10000, 200),
# with allocs/op;
# BenchmarkClearUnsharded, the unsharded clear at n up to 20000, which
# reports B/op: a clear that builds anything agents×agents again shows
# up there as gigabytes (SMR at n=20000 allocates ~65 MB) or as an
# out-of-memory kill; BenchmarkClearPredicted, the same clear over the
# predicted matrix, whose tied rows the marriage breaks by class, at n up
# to 20000, where a marriage quadratic in agents again takes 0.4 s;
# BenchmarkClearSharded, 100000 agents over 256 shards; the
# n=2000 exact and approximate prediction kernels
# (internal/recommend BenchmarkCompleteFlat/BenchmarkCompleteApprox, and
# the root BenchmarkPredictComplete on the predict-complete workload's
# 600-job shape); internal/cluster BenchmarkDispatch, an epoch's
# dispatch at 400 and 5000 colocations through RunMatching and Dispatch;
# and internal/matching BenchmarkStableMarriageClasses and
# internal/rematch BenchmarkAssess, one marriage and one assessment at
# n=800 and 20000 through a 20-class view carrying its preference
# table, as the engine hands them over, and at n=800 through a Dense
# view, the marriage beside Gale–Shapley over Penalties.Lists (the
# count marriage's gap to agent-level proposals on Dense views).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run xxx ./...

# fuzz-smoke fuzzes, each for a bounded time, flat-kernel ≡
# reference-kernel on small arbitrary matrices, the wire codec ≡
# encoding/json on arbitrary lines (seeded from the golden transcripts in
# internal/netproto/testdata/), and the class-count assessment ≡ the
# partner-listing scan and the pairwise blocking-pair count on tie-heavy
# markets, three populations on each matrix, every one assessed with the
# matrix's preference table (built once per matrix) and without, bit for
# bit alike (seeded from its property test's table, ±0 entries, equal
# rows and absent classes included), Penalties.Lists ≡
# the comparator-sort reference on tie-heavy class views, overlapping and
# shuffled sides included (seeded likewise), the class-bucketed repair
# neighborhood ≡ its reading (every dirty agent's top K by a full sort)
# on tie-heavy markets, three populations on each matrix, with a shard
# pool and without, through views with the preference table, without
# and Dense (seeded likewise, ±0 entries, equal rows, a class absent
# from the pool and K past the pool included), the count-level stable
# marriage ≡ Gale–Shapley over comparator-sorted (penalty, class, index)
# lists on tie-heavy markets, three marriages on each matrix, with its
# preference table and without, matchings and steps alike, Dense views
# and tie-free class views ≡ Gale–Shapley over Penalties.Lists (seeded
# likewise, ±0 entries, equal rows and a class on one side only
# included), and the positional churn
# ledger ≡ the ID-keyed reference delta by delta and error by error, over
# joins, departures, failed epochs, commits and bad requests (seeded
# likewise), and the auditor on arbitrary event streams — no panic,
# Replay ≡ Feed event by event then Finish, two replays equal (seeded
# from the audit tests' logs: in-process and wire, repair and full), and
# the one-pass dispatch (Dispatch and RunMatching) ≡ the pre-rewrite
# reference dispatcher bit for bit over 1–130 machines, any solo share,
# zero-runtime solos and two rounds on shared clocks.
# Minimizing each newly covered input is switched off: it can take the
# whole budget and finds nothing.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzFlatMatchesReference -fuzztime=10s -fuzzminimizetime=0 ./internal/recommend/
	$(GO) test -run xxx -fuzz FuzzMessageCodec -fuzztime=10s -fuzzminimizetime=0 ./internal/netproto/
	$(GO) test -run xxx -fuzz FuzzAssess -fuzztime=10s -fuzzminimizetime=0 ./internal/rematch/
	$(GO) test -run xxx -fuzz FuzzLists -fuzztime=10s -fuzzminimizetime=0 ./internal/matching/
	$(GO) test -run xxx -fuzz FuzzStableMarriageClasses -fuzztime=10s -fuzzminimizetime=0 ./internal/matching/
	$(GO) test -run xxx -fuzz FuzzNeighborhood -fuzztime=10s -fuzzminimizetime=0 ./internal/rematch/
	$(GO) test -run xxx -fuzz FuzzLedger -fuzztime=10s -fuzzminimizetime=0 ./internal/rematch/
	$(GO) test -run xxx -fuzz FuzzReplay -fuzztime=10s -fuzzminimizetime=0 ./internal/audit/
	$(GO) test -run xxx -fuzz FuzzDispatch -fuzztime=10s -fuzzminimizetime=0 ./internal/cluster/

# bench-check vets and tests the benchmark harness (benchmark/ is its own
# module, so `./...` above does not reach it): its result checkers
# reject broken matchings, BENCHMARK.json names exactly what the harness
# emits, and a short run of every workload emits every metric. The
# benchmark itself is `bash benchmark/run.sh`.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

clean:
	$(GO) clean ./...
