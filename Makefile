# Mirrors the CI pipeline (.github/workflows/ci.yml): `make check` is what a
# green CI run executes; the bench job runs bench-smoke and bench-check.

GO ?= go

# Kernel micro-benchmarks recorded into BENCH_mcts.json (episode — one slot
# of the MCTS episode pipeline, begin + commit, as Workers=1 runs it —,
# rollout, prior phase, the uncached what-if call, what-if cache hit/miss,
# the batched what-if path — on TPC-H (BenchmarkWhatIfBatch8/64) and on one
# Real-M query scoring greedy-step extensions cur ∪ {a}
# (BenchmarkWhatIfBatchRealM) —, projection build, the derived cost of one
# query and of all 22 TPC-H queries in one read (BenchmarkDerivedLookup,
# BenchmarkDerivedQueryAll), bound derivation, and the parallel-pipeline
# speedup; bound derivation covers both the TPC-H store
# and the Real-M two-phase store; the Best-Greedy extraction from scratch
# and as a memoized refresh at an early-stop check; the cold Real-M
# optimizer + session set-up, which builds no relevance bitmap, and the
# full relevance build over every Real-M query (BenchmarkRelevanceRealM)
# that MCTS and DTA still pay; the per-episode seen-set pass over every query;
# one trace event through an auto-flushing recorder into the daemon's
# broadcast stream; candidate generation on Real-M,
# BenchmarkCandidateGenerationRealM; and synthesis of the Real-M and Real-D
# workloads, BenchmarkWorkloadGeneration and BenchmarkWorkloadGenerationRealD).
KERNEL_BENCH = BenchmarkEpisode|BenchmarkRollout|BenchmarkComputePriors|BenchmarkMCTSFixedBudgetWorkers|BenchmarkWhatIfCall|BenchmarkWhatIfCacheHit|BenchmarkWhatIfCacheMiss|BenchmarkWhatIfBatch|BenchmarkDerivedLookup|BenchmarkDerivedQueryAll|BenchmarkProjectionBuild|BenchmarkWhatIfProjectedCacheHit|BenchmarkBoundDerivation|BenchmarkEarlyStopCheck|BenchmarkMCTSEarlyStop|BenchmarkEvictionChurn|BenchmarkDerivedOnly|BenchmarkExtractRefresh|BenchmarkNewSessionRealM|BenchmarkRelevanceRealM|BenchmarkSessionSeen|BenchmarkRecorderEmit|BenchmarkCandidateGenerationRealM|BenchmarkWorkloadGeneration

.PHONY: check fmt vet bench-vet lint lint-json build test race fuzz bench-smoke bench-json bench-check profile trace-smoke tuned-smoke figures

check: fmt vet bench-vet lint build test race fuzz tuned-smoke

# fmt fails when gofmt would rewrite any Go file in the tree — the root
# module, the benchmark harness under bench/ and the analyzers' testdata
# alike — and lists those files.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# bench-vet type-checks the benchmark harness, its own module under bench/
# that ./... does not reach: its replay calls session and optimizer methods
# (the scalar Reserve/EvaluateReserved/CommitReserved trio, Known) that no
# root-module code uses, so deleting one must fail here.
bench-vet:
	cd bench && $(GO) vet ./...

# lint runs the full DefaultAnalyzers suite (budgetguard, determinism,
# atomicfields, panicguard, reservepair, chargepath, lockguard, unreached)
# over the root module; reservepair checks every ReserveBatch →
# CommitReservedBatch pairing on a local batch, and unreached reports every
# function no entry point reaches. Packages are loaded and analyzed in parallel, output
# order is deterministic.
lint:
	$(GO) run ./cmd/indexlint ./...

# lint-json emits the same findings as JSON Lines into lint-report.jsonl; the
# exit code still gates. CI's one blocking lint step runs this target and
# uploads the report as an artifact.
lint-json:
	$(GO) run ./cmd/indexlint -json ./... > lint-report.jsonl

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# fuzz runs each native fuzz target for a short window: FuzzReadJSON (the
# workload JSON reader; an accepted workload must tune within budget),
# FuzzParse (the SQL parser; an accepted query must validate and round-trip
# through RenderSQL), FuzzLoadSnapshot (the cache snapshot reader; it must
# return an error or load entries, never panic) and FuzzSpecNormalize (the
# daemon's job-spec validation; an accepted spec must be in range) and
# FuzzAppendEvent (the trace event encoder; its line must equal
# encoding/json's, or both must fail). A crasher lands in the package's
# testdata/fuzz/ and replays in every `go test` once committed.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 15s .
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 15s ./internal/whatif
	$(GO) test -run '^$$' -fuzz '^FuzzSpecNormalize$$' -fuzztime 15s ./internal/jobs
	$(GO) test -run '^$$' -fuzz '^FuzzAppendEvent$$' -fuzztime 15s ./internal/trace

# bench-smoke compiles and executes every benchmark exactly once — it proves
# the harness runs, not that it is fast.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-json records the kernel micro-benchmarks into BENCH_mcts.json, the
# committed baseline that bench-check gates against; the episode kernels run
# at the fixed iteration count bench-check uses.
bench-json:
	$(GO) test -run '^$$' -bench '^BenchmarkEpisode(Cached)?$$' -benchtime 200000x ./internal/core > bench.out
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -skip '^BenchmarkEpisode' ./internal/core . >> bench.out
	$(GO) run ./cmd/benchdiff -emit -o BENCH_mcts.json bench.out
	@rm -f bench.out
	@cat BENCH_mcts.json

# bench-check re-runs the episode kernels at a fixed 200000 iterations (their
# tree grows across iterations, so BenchmarkEpisode's ns/op and
# BenchmarkEpisodeCached's allocs/op depend on b.N, and a time-based run
# would pick b.N from host speed; BENCH_mcts.json's BenchmarkEpisode entry
# is recorded at that count), the worker-scaling benchmark, the cache-hit
# kernels, the what-if kernels, the cold Real-M session set-up, the Real-M
# relevance build, Real-M candidate generation and Real-M and Real-D
# synthesis, failing on a >20% regression of the episode kernel, of the cold
# set-up (BenchmarkNewSessionRealM), of the relevance build it leaves to
# first need (BenchmarkRelevanceRealM), of candidate generation
# (BenchmarkCandidateGenerationRealM, the rest of a Real-M set-up) or of
# workload synthesis (BenchmarkWorkloadGeneration on Real-M,
# BenchmarkWorkloadGenerationRealD, most of a Real-D set-up) vs the
# committed baseline — so work moved out of the set-up cannot grow unseen —,
# if the 4-worker
# pipeline no longer beats the one-slot pipeline by >= 2x wall-clock, or if
# the hot paths start allocating again (cache hits must stay at 0 allocs/op;
# the one-slot episode cycle — BenchmarkEpisode, begin + commit through the
# batch calls — is pinned at its measured 6 allocs/op, so the slot's batch
# keeps reusing its storage and node stats stay by value; the derived-answer
# episode cycle is pinned at its measured 3 allocs/op, far under the
# string-keyed implementation's 96; the seen-set pass over every query must
# stay at 0 allocs/op; the steady-state
# early-stop check runs once per 50 MCTS episodes or per greedy step and must
# stay at 0 allocs/op; the memoized extraction refresh at an early-stop check
# is pinned at its recorded 7 allocs/op, so a refresh keeps reusing the
# memo's buffers instead of rebuilding steps; a from-scratch extraction
# (BenchmarkDerivedOnly) is pinned at its recorded 60 allocs/op, so the
# extractor reads each query's ordinals from the store instead of building
# its own copy; batched scoring amortizes its result slice across the
# batch and must stay at 0 allocs per scored pair, on TPC-H and on the Real-M
# query (BenchmarkWhatIfBatchRealM); the uncached what-if call
# scores the interned plan space with pooled scratch and must stay at 0
# allocs/op; the byte-bounded cache-hit path pays at most the CLOCK reference
# bit over the unbounded hit — gated at <= 1.1x its ns/op and 0 allocs/op; the
# derived-store reads — Query, QueryAll and Bounds on the TPC-H store,
# Bounds on the Real-M two-phase store — must stay at 0 allocs/op; one trace event on the
# daemon's path — BenchmarkRecorderEmit, encode + flush + broadcast append —
# must stay at 0 allocs/op; Real-M and Real-D synthesis are pinned at their
# recorded allocs/op, so per-table or per-ref allocations cannot creep back).
# The what-if kernels run
# a fixed iteration count so the miss benchmarks insert a fixed number of
# cache entries — a time-based budget would let a faster path fill a much
# larger cache and pay unmatched map-growth cost.
bench-check:
	$(GO) test -run '^$$' -bench '^BenchmarkEpisode(Cached)?$$' -benchtime 200000x ./internal/core > benchcheck.out
	$(GO) test -run '^$$' -bench 'BenchmarkMCTSFixedBudgetWorkers|BenchmarkEarlyStopCheck|BenchmarkExtractRefresh|BenchmarkDerivedOnly' ./internal/core >> benchcheck.out
	$(GO) test -run '^$$' -bench 'BenchmarkWhatIfCall$$|BenchmarkWhatIfCacheHit$$|BenchmarkWhatIfCacheHitBounded$$|BenchmarkWhatIfProjectedCacheHit$$|BenchmarkWhatIfCacheMiss$$|BenchmarkWhatIfBatch|BenchmarkEvictionChurn$$' -benchtime 2000000x . >> benchcheck.out
	$(GO) test -run '^$$' -bench 'BenchmarkBoundDerivation|BenchmarkDerivedLookup$$|BenchmarkDerivedQueryAll$$|BenchmarkNewSessionRealM$$|BenchmarkRelevanceRealM$$|BenchmarkSessionSeen$$|BenchmarkRecorderEmit$$|BenchmarkCandidateGenerationRealM$$|BenchmarkWorkloadGeneration(RealD)?$$' . >> benchcheck.out
	$(GO) run ./cmd/benchdiff -baseline BENCH_mcts.json -threshold 1.20 -match '^(BenchmarkEpisode|BenchmarkNewSessionRealM|BenchmarkRelevanceRealM|BenchmarkCandidateGenerationRealM|BenchmarkWorkloadGeneration|BenchmarkWorkloadGenerationRealD)$$' benchcheck.out
	$(GO) run ./cmd/benchdiff -speedup 'BenchmarkMCTSFixedBudgetWorkers/workers=1,BenchmarkMCTSFixedBudgetWorkers/workers=4,2.0' benchcheck.out
	$(GO) run ./cmd/benchdiff -speedup 'BenchmarkWhatIfCacheHit,BenchmarkWhatIfCacheHitBounded,0.909' benchcheck.out
	$(GO) run ./cmd/benchdiff -maxallocs 'BenchmarkWhatIfCall,0' -maxallocs 'BenchmarkWhatIfCacheHit,0' -maxallocs 'BenchmarkWhatIfCacheHitBounded,0' -maxallocs 'BenchmarkWhatIfProjectedCacheHit,0' -maxallocs 'BenchmarkEpisode,6' -maxallocs 'BenchmarkEpisodeCached,3' -maxallocs 'BenchmarkEarlyStopCheck,0' -maxallocs 'BenchmarkExtractRefresh,7' -maxallocs 'BenchmarkDerivedOnly,60' -maxallocs 'BenchmarkWhatIfBatch8,0' -maxallocs 'BenchmarkWhatIfBatch64,0' -maxallocs 'BenchmarkWhatIfBatchRealM,0' -maxallocs 'BenchmarkBoundDerivation,0' -maxallocs 'BenchmarkBoundDerivationRealM,0' -maxallocs 'BenchmarkDerivedLookup,0' -maxallocs 'BenchmarkDerivedQueryAll,0' -maxallocs 'BenchmarkSessionSeen,0' -maxallocs 'BenchmarkRecorderEmit,0' -maxallocs 'BenchmarkWorkloadGeneration,39432' -maxallocs 'BenchmarkWorkloadGenerationRealD,62088' benchcheck.out
	@rm -f benchcheck.out

# profile runs a representative tuning session under the CPU and heap
# profilers; inspect with `go tool pprof tune.cpu.pprof`.
profile:
	$(GO) run ./cmd/tune -workload tpch -alg mcts -k 10 -budget 2000 \
		-cpuprofile tune.cpu.pprof -memprofile tune.mem.pprof
	@ls -l tune.cpu.pprof tune.mem.pprof

# tuned-smoke boots the tuning daemon on an ephemeral port and drives it
# over real HTTP: submit → stream trace → cancel (checking the refund
# invariant used + refunded == budget) → SIGTERM drain with a clean exit.
tuned-smoke:
	bash scripts/tuned_smoke.sh

# trace-smoke exercises the observability layer end to end: a traced tuning
# run plus per-run experiment traces, leaving the artifacts in trace-out/.
trace-smoke:
	mkdir -p trace-out
	$(GO) run ./cmd/tune -workload tpch -alg mcts -k 5 -budget 200 \
		-trace-out trace-out/tune.jsonl -metrics-out trace-out/tune.summary.json
	$(GO) run ./cmd/experiments -fig 14 -quick -trace-dir trace-out
	@ls -l trace-out

# figures regenerates every experiment id at the smallest fidelity (one seed,
# budgets ÷100) into figures.csv, one header row for the whole file, so a
# change's movement on every figure can be diffed. The text tables go to
# stdout.
figures:
	$(GO) run ./cmd/experiments -all -seeds 1 -scale 100 -csv figures.csv
