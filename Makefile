# Patty — build / test / benchmark entry points.

GO ?= go

.PHONY: all build test race fuzz faults chaos serve-chaos cachechaos fleet netchaos vm bench lint eval study examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz is the differential gate CI runs on every PR: generated
# programs through detect -> transform -> execute against the
# sequential oracle, then short native fuzzing bursts.
fuzz:
	$(GO) run ./cmd/patty fuzz -seed 1 -n 50
	$(GO) test ./internal/difftest -run '^$$' -fuzz 'FuzzDifferential$$' -fuzztime 30s
	$(GO) test ./internal/difftest -run '^$$' -fuzz FuzzDifferentialPipeline -fuzztime 30s

# faults is the fault-tolerance gate: the runtime's cancellation /
# panic-isolation / drain property tests under -race, plus a
# fault-injection fuzzing smoke (retry must heal exactly, skip must
# drop exactly the injected items).
faults:
	$(GO) test -race -run 'Fault|Cancel|Drain' ./internal/...
	$(GO) run ./cmd/patty fuzz -faults -n 50

# chaos is the crash-recovery gate: kill-and-restart harnesses under
# -race — a checkpointed `patty tune` process SIGKILLed mid-search and
# a `patty serve` instance SIGKILLed with a job in flight must both
# resume from their snapshots and converge to the same best
# configuration as an uninterrupted run, with zero leaked goroutines;
# the killed tune search must also report the reference's set of
# faulted (quarantined) configurations; plus the supervisor and
# intake-breaker storm tests, the search-identity regressions (a
# checkpoint never resumes across objectives; a cached server answers
# a faulting objective like a cache-free run), the golden snapshot and
# the frame codec and checkpoint corruption sweeps. Budgeted well
# under 60s.
chaos:
	$(GO) test -race -count=1 -timeout 60s \
		-run 'KillRestart|ServeChaos|FuzzCheckpoint|Storm|Breaker|CheckpointResume|CorruptionEveryOffset|CoversObjective|DifferingInFaultSeed|GoldenSnapshot' \
		./cmd/patty/ ./internal/jobs/ ./internal/tuning/ ./internal/checkpoint/

# serve-chaos is the durable-serve gate: a `patty serve -store-dir`
# instance SIGKILLed under concurrent multi-tenant traffic must
# recover every acknowledged job exactly once on restart (finished
# jobs restored from the WAL, interrupted searches resumed from their
# snapshots); the WAL's frame codec survives a bit-flip/truncation
# sweep at every offset and a WAL written by an older build still
# opens; and TestServeTenantFairnessUnderHog must hold max/min tenant
# goodput within 2.0 against a hog tenant at 5x the others'
# concurrency, all under -race.
serve-chaos:
	$(GO) test -race -count=1 -timeout 120s \
		-run 'TrafficChaos|StoreRecovery|Quota429|TenantF|FrameCorruptionEveryOffset|TornTail|GoldenWAL' \
		./cmd/patty/ ./internal/store/ ./internal/jobs/ ./internal/checkpoint/

# cachechaos is the evaluation-store gate: a `patty serve -cache-dir`
# process SIGKILLed mid-insert under two-tenant duplicate traffic must
# recover the store on restart (torn tail truncated, corrupt segments
# quarantined — never a wrong hit), answer a third tenant's duplicate
# job byte-identically from the store, and converge the resubmitted
# search to the same best as a cache-free run; plus the frame codec
# and store-open corruption sweeps, the golden segment, the
# canonical-hash invariance suite, and the warm-vs-cold bit-identity
# gates (a warm run, also of another algorithm and over a faulting
# objective, equals the cache-free run; a cached fault reads back as a
# fault, never as cost 0), all under -race. TestServeJobMemoization
# includes the duplicate leg: a tune job resubmitted by another tenant
# with its sources comment-perturbed must hit the store. TestStep pins
# the one evaluation step's fault rule and lookup order.
cachechaos:
	$(GO) test -race -count=1 -timeout 120s \
		-run 'CacheChaos|WarmCache|FrameCorruption|StoreOpenCorruption|GoldenSegment|ProgramHash|CacheResume|AnalyzeCache|CacheTable|JobCacheKey|CacheIdentity|ServeJobMemoization|Step$$' \
		./cmd/patty/ ./internal/evalcache/ ./internal/checkpoint/ ./internal/fleet/ ./internal/obs/ ./internal/report/ ./internal/tuning/

# fleet is the distributed-tuning gate: the coordinator/worker suite
# under -race — shard partitioning, lease expiry, work stealing,
# coordinator crash resume, worker cache replay, intake hardening —
# plus the CLI chaos leg that SIGKILLs one of three real `patty
# worker` processes mid-search and requires the merged best to equal
# the uninterrupted local reference, with zero leaked goroutines.
fleet:
	$(GO) test -race -count=1 -timeout 120s ./internal/fleet/
	$(GO) test -race -count=1 -timeout 120s -run 'Fleet|ServeIntakeHardening' ./cmd/patty/

# netchaos is the hostile-network gate: the deterministic wire-fault
# injector's own suite, then a multi-worker search under the pinned
# chaos plan with one byzantine (lying) worker — the coordinator must
# quarantine the liar via seeded cross-checks, survive every injected
# fault class (each observable as a fleet.net.* counter), and still
# produce a result bit-identical to the uninterrupted local run, with
# zero leaked goroutines, all under -race. The satellite suites ride
# along: Retry-After honoring, jitter properties, Content-Length
# mismatch rejection, the WAL decode edge cases and the frame codec
# corruption sweep.
netchaos:
	$(GO) test -race -count=1 -timeout 180s ./internal/netchaos/
	$(GO) test -race -count=1 -timeout 180s \
		-run 'NetChaos|Byzantine|CrossCheck|CostsAgree|PickSample|PeerKey|RetryAfter|ContentLength|Jitter|CheckpointCorrect|DecodeWALEdge|FrameCorruptionEveryOffset|FleetTableHostile|AnalyzeFleetHostile' \
		./internal/fleet/ ./internal/jobs/ ./internal/store/ ./internal/checkpoint/ ./internal/tuning/ ./internal/obs/ ./internal/report/ ./cmd/patty/

# vm is the bytecode-engine gate: the VM must stay bit-identical to
# the tree-walking oracle — engine equivalence and golden-disassembly
# suites under -race, the VM-vs-tree fuzz corpus replay, and a CLI
# fuzzing smoke with every machine pinned to the VM. The one-pass
# dependence profiler rides along: its semantics suite and the corpus
# check that model enrichment equals the per-loop traced reference.
# The >= 10x corpus-throughput gate runs without -race, which would
# measure the race detector instead.
vm:
	$(GO) test -race -count=1 -run 'Engine|CorpusEngineEquivalence|GoldenDisassembly|RegressionSeeds|OnePass|EnrichDynamicMatchesPerTargetReference' \
		./internal/interp/ ./internal/difftest/ ./internal/profile/ ./internal/corpus/
	$(GO) test -count=1 -run VMSpeedupOverTree ./internal/interp/
	$(GO) test ./internal/difftest -run '^$$' -fuzz FuzzVMvsTreeWalker -fuzztime 30s
	$(GO) run ./cmd/patty fuzz -n 50 -engine vm

# lint fails when any file needs gofmt or go vet finds an issue; CI
# runs this on every push (see .github/workflows/ci.yml).
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .
	$(GO) test -bench 'BenchmarkEngine' -benchmem -benchtime 1x ./internal/interp/

eval:
	$(GO) run ./cmd/patty eval

study:
	$(GO) run ./cmd/patty study

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videopipeline
	$(GO) run ./examples/indexer
	$(GO) run ./examples/raytrace
	$(GO) run ./examples/faulttolerant

clean:
	rm -rf patty-out
