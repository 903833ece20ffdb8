# Build/test/bench entry points. `make bench` appends machine-readable
# results to BENCH_<date>.json so the perf trajectory is tracked per PR.

GO ?= go
DATE := $(shell date +%Y%m%d)
# same-day reruns get a numeric suffix instead of clobbering the earlier
# file, so bench-compare always has a baseline to diff against
BENCHFILE := $(shell f=BENCH_$(DATE).json; i=2; while [ -e $$f ]; do f=BENCH_$(DATE).$$i.json; i=$$((i+1)); done; echo $$f)

.PHONY: all build vet check test race bench bench-compare shard-check coord-check serve-check store-check clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# check runs the six project analyzers (cmd/vgen-check): map-order
# leaks, nondeterminism sources, non-durable artifact writes, severed
# context chains, CellStats merge bypasses, and code or settings no
# shipped caller reaches. Exit is non-zero on any finding or
# unexplained suppression.
check:
	$(GO) run ./cmd/vgen-check ./...

test: vet check
	$(GO) test ./...

# race-checks the packages with concurrency: the parallel evaluation
# engine, the verdict pipeline (its shared tiers and verdict memo are
# hit by every eval worker and every bank build; its suite races
# evaluations of one candidate from 12 goroutines), the bounded cache
# every memo tier is built on (shared by all eval workers; its suite
# races Add from 16 goroutines), the parser
# (every eval worker shares a prompt's parsed header), the model
# family the engine drives (whose prepare tasks build LMs and variant
# banks on every pool worker), the n-gram sampler (whose frozen tables
# share per-temperature weight tables across workers), the simulator and its
# value package (eval workers run simulators side by side over one
# shared testbench AST), the generation-backend layer, the
# sweep coordinator (whose fault-injection suite exercises every
# supervision path), the remote transport (whose fault-matrix suite
# exercises every recovery path), the result store (shared by parallel
# sweep workers through its cached source), and the analyzer driver
# (loads packages from many golden trees).
race:
	$(GO) test -race ./internal/eval/... ./internal/verdict/... ./internal/bounded/... ./internal/vlog/... ./internal/model/... ./internal/ngram/... ./internal/sim/... ./internal/vnum/... ./internal/gen/... ./internal/coord/... ./internal/remote/... ./internal/store/... ./internal/goanalysis/...

# -json emits the test2json stream (one JSON object per line) including
# every Benchmark output line, so the file is grep- and jq-friendly.
# Benchmarks run as two processes appended to one file: component
# benches first, then the sweep-scale benches. The sweep benches retain
# megabytes of compiled designs, plans, and memo state for their whole
# process lifetime, and the GC mark cost of that retained graph would
# otherwise tax every allocating component bench sharing the process.
# A new Benchmark must be added to exactly one of these two lists.
MICROBENCH := ^(BenchmarkCorpusPipeline|BenchmarkMinHashSig64|BenchmarkMinHashSig256|BenchmarkVnumAdd64|BenchmarkVnumAdd512|BenchmarkVnumMul64|BenchmarkVnumHexString|BenchmarkNgramOrder2|BenchmarkNgramOrder5|BenchmarkFamilyLMs|BenchmarkEncode|BenchmarkEncodeInto|BenchmarkFrozenSample|BenchmarkMapSample|BenchmarkSampleRand|BenchmarkMathRandSeed|BenchmarkBPETrainVocab512|BenchmarkParseReference|BenchmarkParsePrefixed|BenchmarkCompileCheck|BenchmarkSchedulerRegions|BenchmarkProcessHandoff|BenchmarkCompiledEval|BenchmarkInterpretedEval|BenchmarkShardMerge|BenchmarkStoreLookup|BenchmarkStoreOpen)$$
MACROBENCH := ^(BenchmarkTableI|BenchmarkTableII|BenchmarkTableIII|BenchmarkTableIV|BenchmarkFigure6|BenchmarkFigure7|BenchmarkHeadline|BenchmarkAblation|BenchmarkFailureGallery|BenchmarkFullPipelineEvaluation|BenchmarkEvaluateWarmCompile|BenchmarkTableIIISerial|BenchmarkTableIIIParallel|BenchmarkEvaluateBatchSerial|BenchmarkEvaluateBatch|BenchmarkSweepThroughput)$$

# GOGC is pinned for recordings: the bounded caches keep the suite's
# live heap deliberately small, so default pacing would make ns/op track
# the GC duty cycle instead of the measured code. Allocation regressions
# still show — benchcmp reports allocs/op alongside every delta.
bench:
	GOGC=400 $(GO) test -json -run '^$$' -bench '$(MICROBENCH)' -benchmem -count=5 . > $(BENCHFILE)
	GOGC=400 $(GO) test -json -run '^$$' -bench '$(MACROBENCH)' -benchmem -count=3 . >> $(BENCHFILE)
	@grep -o '"Output":"Benchmark[^"]*' $(BENCHFILE) | sed 's/"Output":"//;s/\\n//' || true
	@echo "wrote $(BENCHFILE)"

# bench-compare diffs the two most recent bench files with benchstat-style
# aggregation and fails on >10% ns/op regressions in the pinned hot-path
# benches (see cmd/vgen-benchcmp).
bench-compare:
	$(GO) run ./cmd/vgen-benchcmp

# shard-check proves distributed sweeps: a 4-way sharded, serialized,
# merged sweep must be byte-identical to the single-process run at all
# five paper temperatures, for the family and replay backends, and so
# must the family backend at -workers 1 and 4 and under -record.
shard-check:
	GO=$(GO) ./scripts/shard-check.sh

# coord-check proves fault-tolerant supervision: a 4-way supervised run
# with subprocess workers and injected crashes must merge byte-identical
# to the monolithic run, and exhausted retries must degrade to an
# explicit partial result that a restarted coordinator resumes.
coord-check:
	GO=$(GO) ./scripts/coord-check.sh

# serve-check proves the remote backend: vgen-eval sweeping through
# vgen-serve over loopback HTTP must render table3/fig6/passk
# byte-identical to the in-process run, and the auto-paired recording
# must replay to the same bytes offline.
serve-check:
	GO=$(GO) ./scripts/serve-check.sh

# store-check proves the persistent result store: a cold -store run must
# render table3/fig6/passk byte-identical to the store-less run, a warm
# re-run must serve 100% of cells from disk (0 misses = 0 backend
# calls) to the same bytes, and the query/diff layer must see the sweep.
store-check:
	GO=$(GO) ./scripts/store-check.sh

clean:
	rm -f BENCH_*.json
