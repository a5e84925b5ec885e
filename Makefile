GO ?= go

# The packages holding the hot-path micro-benchmarks (simulation kernel,
# GF(2^8)/erasure coding, linearizability checker, the CAS server's collector,
# the node runtime's interactive 64 KiB path, the standing simulator store's
# interactive 1 KiB path, one batch of the benchmark's simulator grid and one
# of its pipelined abd-mwmr workload on each of the live and net backends, the
# TCP transport's 64 B round trip and five-peer fan-out, and one client's
# five-server query round through the runtime's tcp link).
MICRO_PKGS = ./internal/gf ./internal/erasure ./internal/ioa ./internal/consistency ./internal/cas ./internal/runtime ./internal/session ./internal/store ./internal/transport
MICRO_BENCH = 'BenchmarkMulSlice|BenchmarkEncodeDecode|BenchmarkEncode64K|BenchmarkDecodeParity64K|BenchmarkFairRunSweep|BenchmarkRandomRunSweep|BenchmarkCheckAtomicDense|BenchmarkCheckAtomicLarge|BenchmarkObserveLargeValues|BenchmarkServerGC|BenchmarkInteractive64K|BenchmarkInteractiveSim|BenchmarkSimBatch|BenchmarkLiveBatch|BenchmarkNetBatch|BenchmarkEndpointRoundTrip|BenchmarkEndpointFanOut|BenchmarkTCPLinkQuorum'

.PHONY: build cross test race runtime-race smoke-runs chaos-smoke check-smoke load-smoke telemetry-smoke bench bench-smoke bench-micro bench-micro-smoke bench-check fuzz-smoke examples fmt fmt-check vet apicheck apicheck-update deprecated-check ci

build:
	$(GO) build ./...

# internal/gf has an amd64 assembly kernel beside its portable one: vet the
# package set on arm64 and build it on 386, so the portable path keeps
# compiling wherever the assembly does not apply.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# -shuffle=on randomizes test execution order to catch order-dependent tests.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# The node runtime and the transport under it are the packages whose
# correctness depends on goroutine interleavings — every runtime test runs
# over both links, chan and tcp, and every transport connection has a reader
# goroutine at both ends beside its senders — so they get a dedicated
# double-pass race smoke: two counted runs catch schedules a single pass
# misses (every test in both packages, so the pooled coded elements' guard,
# TestPooledSharesSurviveFaults, among them).
runtime-race:
	$(GO) test -race -count=2 ./internal/runtime ./internal/transport

# Every alternative of a smoke target's -run pattern must name a test of the
# package it runs in (go test -list), or a renamed test would drop out of the
# smoke step without failing it. The patterns are read off the targets' own
# commands (make -n), so there is no second copy of them to keep in step.
# Alternatives are split at '|', so a pattern must not group them.
SMOKE_TARGETS = chaos-smoke check-smoke telemetry-smoke
smoke-runs:
	@set -e; runs=$$($(MAKE) -s -n $(SMOKE_TARGETS) \
		| awk '/ test .*-run /{for (i = 1; i < NF; i++) if ($$i == "-run") {p = $$(i+1); gsub("\047", "", p); print p, $$NF}}'); \
	[ -n "$$runs" ] || { echo "smoke-runs: no -run pattern found in $(SMOKE_TARGETS)"; exit 1; }; \
	echo "$$runs" | while read pat pkg; do \
		tests=$$($(GO) test -list . $$pkg | grep -E '^(Test|Example|Fuzz)'); \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			echo "$$tests" | grep -Eq "$$alt" || { echo "smoke-runs: -run alternative $$alt matches no test in $$pkg"; exit 1; }; \
		done; \
	done
	@echo smoke-runs ok

# Chaos smoke: the wall-clock fault scheduler's crash+partition behavior on
# the live and net backends under the race detector — the chaos tests first
# (recovery from a server's cloned image, partition gate timing and healing, goroutine
# reaping, quorum-kill quiescence, the gate order in front of the link, each
# over both links; a client crash and recovery on the clients' shared tcp
# endpoint; a server crash while its reader delivers to it inline; casgc's
# pooled coded elements under a crash, delays and loss; the durability
# rule: no send from a recovering server ahead of its image, and an
# acknowledged write surviving an immediate crash of every server; a send
# blocked on a full mailbox released by shutdown, a post after shutdown
# refused, and shutdown closing every mailbox and ending each live loop
# once, after a crash for good and after a recovery; a mailbox never losing
# a wakeup, a crash reaching a loop parked on an empty mailbox, a blocked
# send ending with its sender's crash, an invocation a crash discarded
# reported as never started, and a send to a crashed server stopped at the
# runtime's gate before any link frames, holds or dials it), then the wake
# and shutdown tests again, 50 times over, since a lost wakeup shows only on
# a rare schedule (the crash's wake of a discarded invocation's waiter among
# them), then a small `shmem grid` scenario matrix driving the whole grid
# over real goroutines and real sockets.
chaos-smoke:
	$(GO) test -race -count=1 -run 'Partition|Recovery|CrashRecover|CrashReaps|QuorumKill|GatesRunInOrder|ClientCrashOnSharedEndpoint|CrashDuringInlineDelivery|PooledSharesSurviveFaults|NoSendAheadOfItsImage|AckedWriteSurvivesImmediateCrash|BlockedSendReleasedByStop|PostAfterStopIsRefused|StopClosesEachLoopOnce|MailboxWakeNeverLost|CrashWakesIdleLoop|BlockedSendEndsWithItsSendersCrash|CrashDiscardedOpNeverStarted|SendToDownNodeStopsAtGate' ./internal/runtime
	$(GO) test -race -count=50 -run 'BlockedSendReleasedByStop|PostAfterStopIsRefused|MailboxWakeNeverLost|CrashWakesIdleLoop|BlockedSendEndsWithItsSendersCrash|CrashDiscardedOpNeverStarted|InlineDeliveryKeepsLinkFIFO' ./internal/runtime
	$(GO) run -race ./cmd/shmem grid -backend live,net -n 3 -f 1 -keys 8 -ops 16 -valuebytes 64 -optimeout 2s > /dev/null
	@echo chaos-smoke ok

# Streaming-checker smoke: two live-backend clusters, atomic abd-mwmr and
# regular twoversion, each stream a 10^5-op history through the online
# windowed checker for their condition while they run, under the race
# detector — verdict clean, frontier caught up, peak checker window bounded
# by the retirement window (not the history). This is the CI step that keeps
# the whole streaming pipeline honest end to end, on both conditions.
check-smoke:
	$(GO) test -race -count=1 -run TestCheckSmokeOnline -v .
	@echo check-smoke ok

# End-to-end smoke of the load generator on both wall-clock backends: a small
# client-count sweep on two shards, consistency-checked per shard; one
# healing-partition point (held at the channel on live, at the socket on net);
# and one pipelined point (depth > 1) exercising the bounded-mailbox
# flow-control path.
load-smoke:
	@set -e; for b in live net; do \
		$(GO) run ./cmd/shmem load -backend $$b -clients 1,2,4 -ops 48 -shards 2 -keys 16 > /dev/null; \
		$(GO) run ./cmd/shmem load -backend $$b -clients 1 -ops 16 -shards 1 -keys 4 -faults partition@0:200 > /dev/null; \
		$(GO) run ./cmd/shmem load -backend $$b -clients 4 -ops 64 -shards 1 -keys 8 -pipeline 4 > /dev/null; \
	done
	@echo load-smoke ok

# Telemetry smoke: a `shmem load -backend net` sweep with -telemetry serving
# live /metrics, scraped repeatedly while it runs — every scrape must be a well-formed
# Prometheus exposition with monotone counters (TestTelemetrySmoke), and the
# storage gauges a live run publishes must never exceed the final ioa
# watermark (TestTelemetryScrapeDuringLiveRun), and a run's final sample is
# taken before its link closes, so teardown never reads as loss
# (TestFinalSampleBeforeTeardown).
telemetry-smoke:
	$(GO) test -race -count=1 -run TestTelemetrySmoke ./cmd/shmem
	$(GO) test -race -count=1 -run TestTelemetryScrapeDuringLiveRun .
	$(GO) test -race -count=1 -run TestFinalSampleBeforeTeardown ./internal/runtime
	@echo telemetry-smoke ok

bench:
	$(GO) test -bench . -benchtime 1s .

# One iteration of the headline benchmark — fast enough for every CI run.
bench-smoke:
	$(GO) test -run NONE -bench Figure1Series -benchtime 1x .

# Hot-path micro-benchmarks (allocation-reporting) at measurement length.
bench-micro:
	$(GO) test -run NONE -bench $(MICRO_BENCH) -benchmem -benchtime 1s $(MICRO_PKGS)

# One iteration of every micro-benchmark — the CI smoke step that keeps the
# hot-path harnesses compiling and running.
bench-micro-smoke:
	$(GO) test -run NONE -bench $(MICRO_BENCH) -benchtime 1x $(MICRO_PKGS)

# The repo benchmark's own tests (bench/ is a module of its own, so the root
# ./... never reaches it): a short smoke of all five BENCHMARK.json workloads
# plus the estimator and comparison-gate unit tests.
bench-check:
	$(GO) -C bench test .

# Short native-fuzzing passes over the coding-theory kernels, the atomicity
# checker against its search oracle, and every decoder a peer's bytes reach:
# the message codec and the length-prefixed inbound stream (one -fuzz target
# per run, as the fuzz engine requires).
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzErasureRoundTrip -fuzztime 10s ./internal/erasure
	$(GO) test -run NONE -fuzz FuzzMatrixInverse -fuzztime 10s ./internal/gf
	$(GO) test -run NONE -fuzz FuzzMulSlice -fuzztime 10s ./internal/gf
	$(GO) test -run NONE -fuzz FuzzCheckAtomic -fuzztime 10s ./internal/consistency
	$(GO) test -run NONE -fuzz FuzzOnlineChecker -fuzztime 10s ./internal/consistency
	$(GO) test -run NONE -fuzz FuzzWireDecodeRobust -fuzztime 10s ./internal/wire
	$(GO) test -run NONE -fuzz FuzzReadFrames -fuzztime 10s ./internal/transport

# Build every example and smoke-run each one (the five API walkthroughs all
# finish in well under a second), so example rot is caught on push; the
# command-line walkthroughs are `shmem` subcommands, covered by its tests.
examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

fmt:
	gofmt -w .

# Fails (with the offending file list) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Public-surface golden: the root package's full `go doc` output, committed
# as API.txt, followed by the fields of the two config types the root package
# aliases (Config = store.Config, NetConfig = runtime.Config), which the
# root package's doc shows without fields. apicheck fails with the diff when
# the surface drifts, so API changes are reviewed, not accidental;
# regenerate a deliberate change with apicheck-update.
API_DOC = { $(GO) doc -all . && $(GO) doc ./internal/store Config && $(GO) doc ./internal/runtime Config; }
apicheck:
	@$(API_DOC) > api-check.tmp || { rm -f api-check.tmp; exit 1; }; \
	if ! diff -u API.txt api-check.tmp; then \
		echo "public API drifted from API.txt; run 'make apicheck-update' if this is intended"; \
		rm -f api-check.tmp; exit 1; \
	fi; rm -f api-check.tmp
	@echo apicheck ok

apicheck-update:
	$(API_DOC) > API.txt
	@echo wrote API.txt

# The public API has no deprecated predecessor beside it; this keeps one from
# quietly growing back.
deprecated-check:
	@! grep -rn 'Deprecated:' --include='*.go' .
	@echo deprecated-check ok

# Exactly what CI runs.
ci: build cross vet fmt-check apicheck deprecated-check race runtime-race smoke-runs chaos-smoke check-smoke load-smoke telemetry-smoke examples fuzz-smoke bench-smoke bench-micro-smoke bench-check
