GO ?= go

.PHONY: all build test vet check-run-lists check-capabilities invariants race race-hot race-transport race-tcp race-shm race-cont race-eager chaos chaos-sim chaos-tcp fuzz-smoke bench bench-smoke bench-pairs figures mpixrun-smoke ci

all: build test

build:
	$(GO) build ./...

# Tier-1: the fast suite (chaos tests run their trimmed -short sweep).
test:
	$(GO) test -short ./...

# go vet plus formatting: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go'))"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# The race and chaos targets below select tests by name, and a renamed
# test falls out of such a list silently. For every line of this file
# with a -run alternation (the '^$$' of the fuzz and bench lines aside),
# list the tests of that line's packages and require each alternative to
# match at least one of them; fail naming the alternative that does not.
check-run-lists:
	@sed -e ':a' -e '/\\$$/N; s/\\\n//; ta' Makefile | grep -v '^#' | grep -E "[-]run[[:space:]]+'" | \
	while read -r line; do \
		pat=$$(printf '%s\n' "$$line" | sed -E "s/.*[-]run[[:space:]]+'([^']*)'.*/\1/"); \
		case "$$pat" in '^'*) continue ;; esac; \
		pkgs=$$(printf '%s\n' "$$line" | tr ' \t' '\n\n' | grep '^\./'); \
		names=$$($(GO) test -list '.*' $$pkgs) || { echo "$$names"; exit 1; }; \
		for alt in $$(printf '%s' "$$pat" | tr '|' ' '); do \
			printf '%s\n' "$$names" | grep -E '^(Test|Fuzz|Example)' | grep -q -E -e "$$alt" || \
				{ echo "check-run-lists: -run alternative '$$alt' matches no test in" $$pkgs; exit 1; }; \
		done; \
	done

# nic.Link and transport.Transport are one contract each: a backend
# answers a method it has no use for with a no-op, and callers call it.
# Fail on any type assertion to a nic or transport interface in the
# library and its commands (tests aside) — qualified from outside the
# two packages, unqualified inside them — except the two the contract
# keeps: the SplitCodec probe (a codec may lack the zero-copy side) and
# the nic.PeerDown verdict token of a completion.
check-capabilities:
	@out="$$( { grep -nE '\.\((nic|transport)\.[A-Z][A-Za-z]*\)' $$(find internal mpix cmd -name '*.go' ! -name '*_test.go'); \
		grep -nE '\.\([A-Z][A-Za-z]*\)' $$(find internal/nic internal/transport -maxdepth 1 -name '*.go' ! -name '*_test.go'); } | \
		grep -vE '\.\((nic\.)?(SplitCodec|PeerDown)\)')"; \
	if [ -n "$$out" ]; then echo "check-capabilities: assertion to a nic/transport interface:"; echo "$$out"; exit 1; fi

# The mechanical invariant checks, which a default build compiles away
# (a constant behind the invariants build tag): today, that a progress
# pass which skips its netmod as idle leaves nothing queued on it — the
# netmod's work counter never reads below its drainable depth. The
# suites run with the checks on over the progress engine, the NIC
# queues, every transport, the MPI layer and the facade.
invariants:
	$(GO) test -short -count=1 -tags invariants ./internal/core/ ./internal/nic/ ./internal/mpi/ ./internal/transport/... ./mpix/

# Full suite under the race detector (the reliability layer's
# retransmission path is the main customer).
race:
	$(GO) test -race ./...

# Race-detector pass over the hot-path packages the observability
# layer instruments (progress engine, matching, NIC, reliability,
# fabric, metrics, trace) and the collective schedules, whose buffers a
# plan rebinds per call while progress threads poll them; -count=1
# defeats the test cache so the atomics are actually exercised on every
# run. The fabric and the NIC run twenty times more: the dispatch
# goroutine and the posting goroutines share value-typed events and
# atomic delivery counters.
race-hot:
	$(GO) test -race -count=1 -short ./internal/core/ ./internal/mpi/ \
		./internal/nic/ ./internal/fabric/ ./internal/metrics/ ./internal/trace/ \
		./internal/coll/
	$(GO) test -race -count=20 ./internal/fabric/ ./internal/nic/

# Race-detector pass over every byte transport (tcp, shm, the composite
# router, the framing they share, the conformance battery), the wait
# ladder they wake (internal/core holds the no-lost-wake-up stress over
# shm and the composite's tcp leg, beside the park timer it has to
# raise) and the datatype pack jobs (async things on a core stream),
# selected by package: a new or renamed test cannot fall out of it the
# way it could fall out of a -run list.
# The battery's SelfSend subtest is the loopback a rank's send to itself
# takes on tcp and shm; TestRemoteSelfSend (race-tcp, by its prefix) is
# the same through MPI.
# -timeout because a reactor or doorbell regression's native failure
# mode is a lost wakeup, i.e. a hang.
race-transport:
	$(GO) test -race -count=1 -timeout 5m ./internal/transport/... ./internal/core/ ./internal/datatype/

# The transport pass plus the multiprocess-world tests that drive MPI
# traffic over loopback sockets, the wait ladder on each kind of world
# (its tcp case counts the passes a receive takes to be found, which is
# the reactor's probe cadence seen from MPI), communicator creation —
# agreed by allgather on every kind of world, so the in-process split,
# stream-communicator and dup tests carry wire traffic too — and the
# facade's sim/tcp/shm matrix (which holds the send-buffer ownership
# cases). A stream communicator created after a StreamFree binds a new
# link's work counter while a watcher may already be delivering to it;
# twenty runs keep that race from coming back unseen.
race-tcp: race-transport
	$(GO) test -race -count=1 -run 'TestRemote|TestWaitLadder|TestSplit|TestStreamComm|TestCommDup' ./internal/mpi/
	$(GO) test -race -count=20 -run 'TestStreamCommAfterStreamFree' ./internal/mpi/
	$(GO) test -race -count=1 -run 'TestMatrix' ./mpix/

# The transport pass plus the multiprocess composite worlds (shm
# intra-node leg under real MPI traffic), the hostile advertised RTS
# (an address the receiver cannot read), and the facade's placed-receive
# and send-buffer cases (a 1 MiB posted receive whose sender dies, or
# whose communicator is revoked, mid-message, on tcp and on the
# composite's shm leg; the same-node rendezvous read out of the sender's
# memory, the ring fallback a refused probe forces, and an advertised
# send buffer under kill and revocation), and the collective plan
# lifecycle on every kind of world (reuse, eviction, revoke, kill). The
# steady-state allocation gates run in a separate non-race pass — race
# instrumentation allocates and would mask the 0 allocs/op,
# bytes-per-message, allocations-per-eager-message and
# allocations-per-allreduce bars.
race-shm: race-transport
	$(GO) test -race -count=1 -timeout 5m -run 'TestRemoteComposite|TestHostileRTSAddress|TestPlan' ./internal/mpi/
	$(GO) test -race -count=1 -timeout 5m -run 'TestMatrixPlacedRecv|TestMatrixSendBuffer' ./mpix/
	$(GO) test -count=1 -run 'TestShmSteadyStateAllocs' ./internal/transport/shm/
	$(GO) test -count=1 -run 'TestRemoteCompositeLargeMessageAllocs|TestAllreduceSteadyStateAllocs|TestEagerSteadyStateAllocs' ./internal/mpi/

# Race-detector pass over the continuation machinery: the core
# run-queue (Defer/drain), the MPIX Continue layer (CAS completion
# election, already-complete inline execution, fail-fast early
# completion), the completion bridges (OnComplete/Done), and the
# cross-transport continuation conformance matrix including the
# kill-a-rank failure-delivery case; then, without the detector, the
# allocation gate on warm ContinueRequests.
race-cont:
	$(GO) test -race -count=1 -timeout 5m \
		-run 'TestDefer|TestFreeStream|TestContinue|TestMatrixContinu' \
		./internal/core/ ./internal/mpi/ ./mpix/
	$(GO) test -count=1 -run 'TestContinueSteadyStateAllocs' ./internal/mpi/

# Race-detector pass over the relaxed (solo/partial) allreduce and the
# quorum schedule machinery beneath it: the coll-layer quorum stages,
# abort-path cancellation and schedule reuse, the per-comm reorder
# window, the straggler/lag-gate/revoke scenarios, a rendezvous-sized
# relaxed round (own contribution sent, never a partly folded one), the
# cross-transport relaxed matrix, the continuation fail-fast/Reset
# race, and the collective plans whose schedules are reused.
race-eager:
	$(GO) test -race -count=1 -timeout 5m \
		-run 'TestRelaxed|TestMatrixRelaxed|TestQuorum|TestReduceTree|TestScheduleAbort|TestScheduleReset|TestContinueFailFast|TestBitmap|TestPlan' \
		./internal/coll/ ./internal/mpi/ ./mpix/

# Both chaos suites: the simulated-fabric fault sweeps and the TCP
# process-failure matrix.
chaos: chaos-sim chaos-tcp

# The long chaos mode: full fault-schedule sweeps, drop rates up to the
# 10% acceptance bar, the conformance battery over the reliability
# layer alone (a nic.Reliable around each simulated endpoint), and the
# sim transport's verdict on a partition that never heals. Every
# chaos target carries an explicit -timeout: a chaos regression's native
# failure mode is the hang, and the guard turns it into a stack dump
# instead of a stuck CI job.
chaos-sim:
	$(GO) test -run 'TestChaos|TestReliable' -count=1 -timeout 10m ./internal/mpi/ ./internal/nic/
	$(GO) test -run 'TestConformanceSimReliable|TestSimPartitionVerdict' -count=1 -timeout 10m ./internal/transport/transporttest/

# Process-failure chaos over TCP, under the race detector: kill one or
# two ranks mid-flight (survivors must observe ErrProcFailed, then
# Revoke/Shrink/Agree and finish on the survivor communicator — never
# hang), revocation mid-collective, a connection lost under traffic (the
# peer's verdict on both ends), hostile frames, graceful-departure teardown, a
# posted receive whose sender dies or whose communicator is revoked
# mid-message, either side of a same-node rendezvous killed between its
# RTS and its FIN, an advertised send revoked before it matched, and the
# launcher's kill/continue supervision matrix (with the two-process
# rendezvous on whichever path the host allows). The
# transport's own half (verdicts, departures, hostile frames, dial
# failure) is the whole tcp package, selected by package: a renamed test
# cannot fall out of it the way it could fall out of a -run list.
chaos-tcp:
	$(GO) test -race -count=1 -timeout 5m -run \
		'TestRemoteKillRank|TestRemoteKillTwoRanks|TestRemoteRevokeMidCollective|TestRemoteConnectionLossIsVerdict|TestRemoteCompositeKillRank|TestRelaxedKill|TestHostile' \
		./internal/mpi/
	$(GO) test -race -count=1 -timeout 5m ./internal/transport/tcp/
	$(GO) test -race -count=1 -timeout 5m -run 'TestMatrixRelaxedAllreduce|TestMatrixPlacedRecv|TestMatrixSendBufferRevoke' ./mpix/
	$(GO) test -count=1 -timeout 5m ./cmd/mpixrun/

# Every committed fuzz target, for a fixed short time each: the frame
# parser both byte transports share, the wire-header decoder, the trace
# exporter, the reduction kernels against their per-element reference. It proves the targets still build and hold on their corpora
# plus a few seconds of mutation; it is no substitute for a long run.
# go test takes one -fuzz target and one package per run.
# -fuzzminimizetime because the default spends up to a minute shrinking
# each new input, which for FuzzStream (kilobyte inputs) leaves no time
# to run any.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzStream$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/transport/framing/
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodecDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceEventJSON$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzApply$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/reduceop/

# Benchmark gate: fixed iteration counts (-benchtime=Nx) keep runs
# comparable across commits, -benchmem feeds the allocs/op gates, and
# the multi-VCI msgrate sweep checks that per-stream progress does not
# serialize. benchjson folds all of it into BENCH_progress.json,
# replacing the "current" section and preserving the committed
# "baseline" for before/after comparison; -check fails the run when any
# baseline msgrate key — the sim VCI sweep and the tcpN/shmN
# multiprocess keys alike — is missing or regressed beyond the
# tolerance, and additionally requires the shm1 intra-node rate to
# strictly beat tcp1 (the shared-memory fast path must outrun loopback
# TCP or it has no reason to exist). The cont workload contributes the
# paired contcb/contpoll keys (callback-driven vs poll-driven
# completion); -check refuses a run carrying one without the other.
# The eagersgd workload contributes the paired eagerN/syncN keys (sim
# and multiprocess): -check requires each pair complete and the eager
# rate at least -eagerx times its sync partner — the relaxed allreduce
# must visibly out-tolerate stragglers or it has no reason to exist.
bench:
	( $(GO) test -run '^$$' -bench 'BenchmarkProgress' -benchtime=2000x -benchmem ./internal/core/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkProgressEager' -benchtime=500x -benchmem ./internal/mpi/ ; \
	  $(GO) run ./cmd/progressbench -workload msgrate -csv ; \
	  $(GO) run ./cmd/progressbench -workload cont -csv ; \
	  $(GO) run ./cmd/progressbench -workload eagersgd -csv ) \
	| $(GO) run ./cmd/benchjson -o BENCH_progress.json -check -tol 0.5 -eagerx 1.2

# One-iteration smoke over every gated benchmark: proves they still
# compile and run without paying for a full measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkProgress' -benchtime=1x ./internal/core/ ./internal/mpi/ > /dev/null

# Alternating pairs of one BENCHMARK.json workload: ./benchmark built from
# PARENT and from the working tree, each in a temporary directory, run
# PAIRS times each with the side that runs first alternating, then each
# metric's medians, the parent's quartiles and the pairs the working tree
# won. Runs last BENCHMARK.json's run_seconds unless BENCH_SECONDS is
# set. Minutes of wall time, so not part of ci.
PARENT ?= HEAD
PAIRS ?= 10
WORKLOAD ?= coll-2x2
bench-pairs:
	./scripts/bench-pairs.sh -p $(PARENT) -n $(PAIRS) -w $(WORKLOAD) $(if $(BENCH_SECONDS),-s $(BENCH_SECONDS))

# The paper's evaluation figures (reduced sweeps).
figures:
	$(GO) run ./cmd/progressbench -quick

# End-to-end launcher smoke: 4 OS processes exchanging real MPI
# traffic over TCP loopback via the GOMPIX_* environment contract.
mpixrun-smoke:
	$(GO) run ./cmd/mpixrun -n 4 ./cmd/pingpong -iters 20

# The PR gate: vet, build, the fast suite, the check that every -run
# list above still names tests, the check that no caller probes a link
# or transport for a method, the fast suites with the invariant checks
# on, the race pass over the instrumented
# hot-path packages (includes the trylock/pool fast path in core, mpi
# and nic), the transport race pass with its tcp and
# shm/composite world passes, the continuation race pass, the
# relaxed-allreduce race pass, the process-failure chaos matrix, the
# fuzz smoke, the benchmark smoke, and the multiprocess launcher smoke.
ci: vet build test check-run-lists check-capabilities invariants race-hot race-tcp race-shm race-cont race-eager chaos-tcp fuzz-smoke bench-smoke mpixrun-smoke
