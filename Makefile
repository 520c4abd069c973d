GO ?= go

.PHONY: build vet lint test test-short test-race bench bench-check bench-quick chaos fuzz fuzz-decoders golden obs-smoke scale-smoke resume-smoke chaos2-smoke ci

## build: compile every package (the tier-1 gate's first half)
build:
	$(GO) build ./...

## vet: static analysis
vet:
	$(GO) vet ./...

## lint: gofmt over every tracked .go file (fails listing any file it would
## reformat), the repo's own determinism/zero-alloc analyzer suite
## (cmd/mmlint), plus staticcheck and govulncheck when installed (CI installs
## pinned versions; locally they are optional — mmlint itself needs nothing
## beyond the Go toolchain)
lint:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "lint: gofmt would reformat:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/mmlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipped (CI runs a pinned build)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipped (CI runs a pinned build)"; \
	fi

## test: full test suite, including the million-node census gate, plus the
## benchmark command (its own module, so the root ./... never builds it)
test:
	$(GO) test ./...
	cd cmd/mmperf && $(GO) vet ./... && $(GO) test ./...

## test-short: skip the scale gates (seconds instead of tens of seconds)
test-short:
	$(GO) test -short ./...

## test-race: the short suite under the race detector with shuffled test
## order (CI's race job) — shuffling proves no test depends on a
## predecessor's side effects
test-race:
	$(GO) test -race -short -shuffle=on ./...

## chaos: the E10 smoke configuration — fault-injection degradation tables
chaos:
	$(GO) run ./cmd/mmexp -only E10

## bench: the engine benchmark suite at full (10⁶-node) scale, recorded
## machine-readably in BENCH_engines.json for commit-over-commit tracking
bench:
	$(GO) run ./cmd/mmbench -full -out BENCH_engines.json

## bench-check: quick benchmark subset diffed against the committed
## BENCH_engines.json; fails on any >25% nodes/sec regression (scale rows
## only compare when node counts match — run `make bench` for those)
bench-check:
	$(GO) run ./cmd/mmbench -compare BENCH_engines.json -out /tmp/bench-check.json

## bench-quick: one pass of the engine relay and census benchmarks
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchtime 1x .

## fuzz: a bounded differential-fuzz session over (graph, algo, seed,
## workers, faults) tuples; any divergence between worker counts is a bug
fuzz:
	$(GO) test -fuzz FuzzEngineEquivalence -fuzztime 60s -run '^$$' .

## fuzz-decoders: 30 s each of the MMCP checkpoint and MMTR transcript
## decoder fuzz targets (plain and gzip seeds, hostile lengths included)
## and of the fault-plan parser's target (round trip, compile without
## panic); their seeds alone already run under `go test ./...`
fuzz-decoders:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 30s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzTranscriptReader$$' -fuzztime 30s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 30s ./internal/fault

## golden: regenerate the committed transcript fixtures (intentional
## determinism changes only)
golden:
	$(GO) test ./cmd/mmnet -run TestGoldenTranscripts -update

## obs-smoke: end-to-end observability gate (CI's obs-smoke job) — a census
## on a 10⁴ ring through the real CLI with -trace and -series, then the
## structural validators: the trace parses as Chrome trace_event JSON with
## phase spans, the series emits header + one row per round with column
## sums equal to the final metrics, the series header matches its golden,
## and the committed example trace still opens (Perfetto-loadable form)
obs-smoke:
	$(GO) run ./cmd/mmnet -graph ring:10000 -algo census -workers 1 \
		-trace /tmp/mmnet-obs-smoke-trace.json -series /tmp/mmnet-obs-smoke-series.ndjson
	$(GO) test ./cmd/mmnet -run TestObsSmoke -count=1
	$(GO) test ./internal/obs -run 'TestExampleTraceFixture|TestTraceChromeJSON|TestSeriesSumsMatchMetricsUnderFaults' -count=1

## scale-smoke: the acceptance gate of the implicit-topology substrate — a
## census over an implicit ring runs without ever materializing the edge
## set (the topology itself is O(1) memory; peak RSS is all per-node
## engine/protocol state). The default 10⁷ tier is CI's: GOMEMLIMIT pins
## the peak so the job fits 7 GB runners; ~1 min on 1 core. SCALE_FULL=1
## switches to the 10⁸ tier — the struct-of-arrays engine holds the whole
## census under GOMEMLIMIT=20GiB — which needs a ≥24 GB box and ~20 min.
scale-smoke:
ifeq ($(SCALE_FULL),1)
	GOGC=off GOMEMLIMIT=20GiB $(GO) run ./cmd/mmnet -graph ring:100000000 -algo census -workers 1
else
	GOGC=50 GOMEMLIMIT=5GiB $(GO) run ./cmd/mmnet -graph ring:10000000 -algo census -workers 1
endif

## resume-smoke: end-to-end checkpoint/restore gate (CI's resume-smoke job) —
## a faulted 10⁵-node census through the real CLI, checkpointed right in the
## middle of a delay+dup+jam storm (so the capture carries in-flight
## messages), resumed, stitched with mmreplay, and required byte-identical
## (mmreplay -diff exits 0 only on identity) to the uninterrupted run's
## transcript. Also proves capture-is-observation: the checkpointing run's
## transcript must equal the plain run's.
RESUME_SMOKE_DIR := /tmp/mmnet-resume-smoke
RESUME_SMOKE_ARGS := -graph ring:100000 -algo census -seed 9 \
	-faults 'delay:*@69990-70005/d10;dup:*@69995-70010;jam:70000-70004'
resume-smoke:
	mkdir -p $(RESUME_SMOKE_DIR)
	$(GO) build -o $(RESUME_SMOKE_DIR)/mmnet ./cmd/mmnet
	$(GO) build -o $(RESUME_SMOKE_DIR)/mmreplay ./cmd/mmreplay
	$(RESUME_SMOKE_DIR)/mmnet $(RESUME_SMOKE_ARGS) \
		-transcript $(RESUME_SMOKE_DIR)/ref.mmtr
	$(RESUME_SMOKE_DIR)/mmnet $(RESUME_SMOKE_ARGS) \
		-checkpoint $(RESUME_SMOKE_DIR)/cp-%d.mmcp -checkpoint-at 70000 \
		-transcript $(RESUME_SMOKE_DIR)/ck.mmtr
	cmp $(RESUME_SMOKE_DIR)/ref.mmtr $(RESUME_SMOKE_DIR)/ck.mmtr
	$(RESUME_SMOKE_DIR)/mmnet -graph ring:100000 -algo census -seed 9 \
		-resume $(RESUME_SMOKE_DIR)/cp-70000.mmcp \
		-transcript $(RESUME_SMOKE_DIR)/resumed.mmtr
	$(RESUME_SMOKE_DIR)/mmreplay -stitch $(RESUME_SMOKE_DIR)/stitched.mmtr -at 70000 \
		$(RESUME_SMOKE_DIR)/ref.mmtr $(RESUME_SMOKE_DIR)/resumed.mmtr
	$(RESUME_SMOKE_DIR)/mmreplay -diff $(RESUME_SMOKE_DIR)/ref.mmtr $(RESUME_SMOKE_DIR)/stitched.mmtr

## chaos2-smoke: end-to-end chaos-v2 gate (CI's chaos2-smoke job), two legs.
## Leg 1: a 10⁵-node census through the real CLI under a scheduled partition
## window plus a crash-restart (the revived incarnation rejoins and the
## census still counts exactly — plan-seed 13's one-round cut heals without
## touching the two in-flight wavefront messages, and any drop would wedge
## the run, so completing at all proves the heal), with transcripts required
## byte-identical at workers 1 and 4 (census is a native step protocol; the
## worker axis is its concurrency surface). Leg 2: the randomized global sum
## under a partition that really cuts (103 partitioned drops) and under a
## crash-restart, at workers 1 and 4, with all output after the header line
## required identical — same sum, same rounds, same fault counters (the plan
## is re-applied beneath each stage of the multi-stage sum, so the
## crash-restart fires twice — hence restarted=2).
CHAOS2_SMOKE_DIR := /tmp/mmnet-chaos2-smoke
CHAOS2_CENSUS_ARGS := -graph ring:100000 -algo census -seed 9 \
	-faults 'seed:13;partition:2@70000;crash:50000@100;restart:50000@120'
CHAOS2_SUM_ARGS := -graph random:48,96 -algo sum -variant rand \
	-stage mb -max-rounds 4000
chaos2-smoke:
	mkdir -p $(CHAOS2_SMOKE_DIR)
	$(GO) build -o $(CHAOS2_SMOKE_DIR)/mmnet ./cmd/mmnet
	$(CHAOS2_SMOKE_DIR)/mmnet $(CHAOS2_CENSUS_ARGS) -workers 1 \
		-transcript $(CHAOS2_SMOKE_DIR)/w1.mmtr
	$(CHAOS2_SMOKE_DIR)/mmnet $(CHAOS2_CENSUS_ARGS) -workers 4 \
		-transcript $(CHAOS2_SMOKE_DIR)/w4.mmtr
	cmp $(CHAOS2_SMOKE_DIR)/w1.mmtr $(CHAOS2_SMOKE_DIR)/w4.mmtr
	set -e; for w in 1 4; do \
		$(CHAOS2_SMOKE_DIR)/mmnet $(CHAOS2_SUM_ARGS) -workers $$w \
			-faults 'seed:7;partition:2@3-6' 2>&1 \
			| grep -v '^graph=' > $(CHAOS2_SMOKE_DIR)/part-w$$w.txt; \
		$(CHAOS2_SMOKE_DIR)/mmnet $(CHAOS2_SUM_ARGS) -workers $$w \
			-faults 'seed:7;crash:5@1;restart:5@2' 2>&1 \
			| grep -v '^graph=' > $(CHAOS2_SMOKE_DIR)/rest-w$$w.txt; \
	done
	cmp $(CHAOS2_SMOKE_DIR)/part-w1.txt $(CHAOS2_SMOKE_DIR)/part-w4.txt
	cmp $(CHAOS2_SMOKE_DIR)/rest-w1.txt $(CHAOS2_SMOKE_DIR)/rest-w4.txt
	grep -q 'partitioned=103' $(CHAOS2_SMOKE_DIR)/part-w1.txt
	grep -q 'restarted=2' $(CHAOS2_SMOKE_DIR)/rest-w1.txt

## ci: the gates .github/workflows/ci.yml runs (its race job re-runs the
## short suite, differential seeds, and example smokes under -race)
ci: build vet lint test chaos
	$(GO) run ./cmd/mmexp -only E11
