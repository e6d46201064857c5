GO ?= go

.PHONY: all build test race vet fmt check surface staticcheck mcastcheck soak chaos-soak net-soak daemon-soak sched-soak psim-soak virtual-soak flake-hunt fuzz bench bench-build examples ci figures figures-check clean live-race lines

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The reliable-delivery and concurrent-session tests exercise shared NIs
# from multiple goroutines; always run them under the race detector.
race:
	$(GO) test -race ./...

# The live runtime is real concurrent code: its tests (and the check
# harness's live-matches-sim differential bridge) MUST run under the race
# detector. This target is explicit — and a required CI step — so the
# -race coverage of internal/live cannot be silently skipped by package
# caching or a filtered test run. internal/mcastd rides along: the daemon
# runs the same ReliableNI, EdgeSender, Supervisor and repair brain as the
# live engine, so its -race coverage must be equally unskippable — and so
# does internal/reliable, the brain both wall-clock supervisors run, and
# internal/fault (with internal/sim, its other consumer), whose armed
# State every live goroutine shares.
live-race:
	$(GO) test -race -count=1 ./internal/fault ./internal/sim ./internal/live/... ./internal/mcastd ./internal/reliable ./internal/sched ./internal/check

# Surface guard: type-checks both modules and fails naming any exported
# identifier under internal/ that no non-test code references, and any
# option field (of a *Config or *Params struct, or fault.Plan)
# that no non-test code sets outside its defaults, unless surface_test.go
# allowlists it. Explicit and uncached so `make ci` cannot skip it.
surface:
	$(GO) test -count=1 -run 'TestExportedSurfaceIsReached|TestEveryOptionHasACaller' .

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

check: build vet fmt race

# Static analysis beyond vet, when the tool is available. Nothing is
# downloaded: machines without staticcheck on PATH skip it with a note.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not on PATH; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Differential testing harness (internal/check): a fixed-seed sweep large
# enough to be meaningful but small enough for CI. Failures print shrunk
# reproducers with replay tokens; see DESIGN.md §8.
mcastcheck:
	$(GO) run ./cmd/mcastcheck -n 500 -seed 1

# Soak: a larger fixed-seed harness sweep — including the crash catalogue
# (failure detection, epoch fencing, adoption) — sharded over 4 workers
# under the race detector, which also exercises the parallel runner's
# synchronization. The report is byte-identical to a -workers 1 run.
# The live-runtime soak (500 fixed-seed goroutine broadcasts, -race) rides
# along: every run spins up and tears down its own NI fabric, so this
# doubles as a goroutine-leak and shutdown-protocol stress.
soak:
	$(GO) run -race ./cmd/mcastcheck -n 2000 -seed 2 -workers 4
	$(GO) test -race -run TestLiveSoak -count=1 ./internal/live

# Chaos soak: a fixed-seed sweep of the fault-decorated reliable live
# engine — seeded loss/corruption/reordering, NI crash-stops and amnesiac
# rejoins — under the race detector, restricted to the four chaos-plane
# invariants and loss-pattern-agreement (the switched and the in-process
# transports drop the same transmissions). mcastcheck runs the engine in
# virtual time (live.RunVirtual), so a failure replays bit-exact from its
# token; the same 250 cases then run on the wall-clock engine's real
# goroutines and timers (TestLiveFaultyWallClock250Cases), whose
# interleavings virtual time does not explore.
chaos-soak:
	$(GO) run -race ./cmd/mcastcheck -n 250 -seed 3 -workers 1 \
		-only live-faulty-terminates,live-survivor-bytes,live-epoch-monotone,live-faulty-lossless-identity,loss-pattern-agreement
	$(GO) test -race -count=1 -run TestLiveFaultyWallClock250Cases ./internal/check

# Net soak: the socket rung of the differential ladder. Runs the
# loopback-UDP soak (120 fixed-seed broadcasts over real sockets), a
# 150-case net-matches-live sweep (every instance executed over UDP and
# compared structurally against the in-process live engine), the lossy
# UDP chaos sweep (FaultyTransport wrapping UDPTransport), and an mcastd
# -all daemon smoke — all under the race detector. Skips cleanly where
# loopback sockets are unavailable.
net-soak:
	$(GO) test -race -run 'TestNetSoak|TestNetChaosSweep' -count=1 ./internal/live ./internal/check
	$(GO) run -race ./cmd/mcastcheck -n 150 -seed 5 -workers 4 -only net-matches-live
	$(GO) run -race ./cmd/mcastd -all -dims 4 -bytes 16384

# Daemon soak: the reliable deployment rung. Runs the lossy two-process
# soak sweep (crossed daemon engines over real loopback UDP at 1–5%
# drop), the SIGKILL crash test (a child daemon process killed
# mid-transfer; the surviving root must confirm the crash, adopt the
# orphaned subtrees per Fig. 11, and settle a typed delivered-partial
# verdict), the zero-fault structural-identity pin, the one-ctl-listener-
# per-process count, and a 120-case net-faulty-delivery sweep — all under
# the race detector, since the daemon coordinator, NI loops, edge senders
# and ctl listener are real concurrent code. Skips cleanly where loopback sockets are unavailable.
daemon-soak:
	$(GO) test -race -run 'TestReliable|TestTwoDaemonsLossy|TestDaemonCrash|TestOneCtlListenerPerProcess' -count=1 ./internal/mcastd
	$(GO) test -race -run TestDaemonFaultySweep -count=1 ./internal/check
	$(GO) run -race ./cmd/mcastcheck -n 120 -seed 9 -workers 4 -only net-faulty-delivery

# Scheduler soak: the massive-session plane under the race detector.
# Runs every internal/sched unit test (admission, typed rejections,
# deadline expiry with buffer-credit reclamation, teardown draining), the
# 256-session fixed-seed fairness soak (no session may exceed a generous
# multiple of its fair in-flight share), the tests of the NI loop the
# scheduler runs on (live.Share: late frames dropped and their slots
# freed, Add/Remove churn leaking no goroutine) and of the report queue
# that is its completion path (the reliable session's reports, a plain
# session's transport failure), and a 120-case sched-
# matches-serial differential sweep: three sessions concurrently through
# one scheduler must be per-host identical to serial live.Run baselines.
# One 1k-session benchmark pass runs the collector at Window 1024, the
# only deep-window path the unit tests leave unexercised.
sched-soak:
	$(GO) test -race -count=1 ./internal/sched
	$(GO) test -race -run '^$$' -bench BenchmarkSched1kSessions -benchtime 1x ./internal/sched
	$(GO) test -race -count=1 -run 'TestShareDropsWhatItCannotServe|TestAbortedRunLeaksNoGoroutines|TestReliableShare|TestRunSurfacesTransportFailure' ./internal/live
	$(GO) run -race ./cmd/mcastcheck -n 120 -seed 11 -workers 4 -only sched-matches-serial

# Psim soak: the windowed scheduler's differential gate under the race
# detector. The scheduler lives in internal/sim (windowed.go) next to the
# session model it shares with the serial loop; internal/psim is its
# exported door and keeps its unit tests (byte-identity vs the serial loop
# across disciplines, topologies and worker counts, window-barrier edge
# cases). So both packages run here — internal/sim's
# golden-fixture test holds sim.* and psim.* at 1 and 3 workers to the
# recorded reference, and its seeded randomized differential
# (TestWindowedMatchesSerialRandomized: 1,000 workloads incl. host
# overheads below the lookahead and absorbed clocks, 1-4 workers vs the
# serial loop) — then a 120-case psim-matches-sim sweep, each case
# compared bitwise against the serial loop at psim worker counts 1 and 3,
# with the harness itself at 1 and then 4 OS workers so worker-pool
# synchronization is raced too.
psim-soak:
	$(GO) test -race -count=1 ./internal/psim ./internal/sim
	$(GO) run -race ./cmd/mcastcheck -n 120 -seed 13 -workers 1 -only psim-matches-sim
	$(GO) run -race ./cmd/mcastcheck -n 120 -seed 13 -workers 4 -only psim-matches-sim

# Virtual soak: the shipped reliable runtime in virtual time
# (live.RunVirtual, internal/live/virtual_test.go): 2,000 seeds x
# {loss + ACK loss + corruption + reordering + jitter, crash-stop,
# crash-recovery} at DefaultReliableConfig, minutes of timer waits in
# seconds of wall clock, plain and under the race detector. Each of the
# -count=20 runs of the test sweeps the next 100 seeds; tier-1's one run
# sweeps the first 100. Its switched arm runs the same runtime over the
# 64-host irregular network (repro.DeliverReliable,
# internal/reliable/soak_test.go): 500 seeds, each a broadcast under loss,
# corruption, one mid-flight link kill and one crash, 25 fresh seeds per
# -count pass, plain and under the race detector. Its plain-session arm
# (TestVirtualMatchesSimSoak, internal/check/live_test.go) holds two
# contending plain sessions in virtual time over the switched network
# (live.RunSwitched) to sim to the nanosecond: virtual-matches-sim on
# 1,000 cases of a fresh seed per -count pass, plain and under the race
# detector.
virtual-soak:
	$(GO) test -count=20 -run TestVirtualTimeChaos -v ./internal/live
	$(GO) test -race -count=20 -run TestVirtualTimeChaos ./internal/live
	$(GO) test -count=20 -run TestSwitchedChaos -v ./internal/reliable
	$(GO) test -race -count=20 -run TestSwitchedChaos ./internal/reliable
	$(GO) test -count=20 -run TestVirtualMatchesSimSoak -v ./internal/check
	$(GO) test -race -count=20 -run TestVirtualMatchesSimSoak ./internal/check

# Flake hunt: the wall-clock packages' tests 20 times at GOMAXPROCS 1 and 2
# while a loop of flit-simulator and experiment tests keeps both CPUs busy —
# the loaded box on which timer-luck tests fail. Not part of tier-1 or of
# `make ci`: it takes tens of minutes. A failure here is a test waiting on
# time instead of on a condition; fix it by waiting on the condition.
flake-hunt:
	@flag=$$(mktemp); \
	( while [ -f $$flag ]; do $(GO) test -count=1 ./internal/flitsim ./internal/experiments >/dev/null 2>&1; done ) & \
	$(GO) test -count=20 -cpu 1,2 -timeout 90m ./internal/live/... ./internal/mcastd ./internal/sched ./internal/check; \
	status=$$?; rm -f $$flag; wait; exit $$status

# Fuzz: tier-1 only replays the checked-in seeds of the seven fuzz targets —
# every decoder that reads bytes off a wire (message header, packet,
# datagram, daemon ctl frame), the packetize/corrupt/reassemble contracts
# and internal/sim's event queue — the one kernel under the session model
# and sim.Engine — held to an (at, seq) sort. This
# mutates from them for FUZZTIME each, one target at a time
# (`go test -fuzz` takes one target of one package per run). A crasher is
# written under the package's testdata/fuzz: fix it and check the file in.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeHeader$$' -fuzztime $(FUZZTIME) ./internal/message
	$(GO) test -run '^$$' -fuzz '^FuzzReassemblerAdd$$' -fuzztime $(FUZZTIME) ./internal/message
	$(GO) test -run '^$$' -fuzz '^FuzzCorruptedPacket$$' -fuzztime $(FUZZTIME) ./internal/message
	$(GO) test -run '^$$' -fuzz '^FuzzPacketizeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/message
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDatagram$$' -fuzztime $(FUZZTIME) ./internal/live/link
	$(GO) test -run '^$$' -fuzz '^FuzzCtl$$' -fuzztime $(FUZZTIME) ./internal/mcastd
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime $(FUZZTIME) ./internal/sim

# Bench: the Go micro-benchmarks, raw `go test -bench` output on stdout —
# the engine event-loop, harness-throughput, reliable-delivery, daemon,
# scheduler and psim suites with -benchmem. BenchmarkReliable* and
# BenchmarkCollectives smoke-run both consumers of sim.Engine. Nothing is recorded: the
# recorded trajectory is bench/ + BENCHMARK.json (`bash bench/run.sh`, see
# bench/README.md). -benchtime is fixed in iterations so two runs compare
# like for like. The harness-throughput pair runs at a smaller fixed count:
# one op is a full 64-case catalogue sweep (~2s since the chaos invariants
# joined it), so 200x would blow the per-package test timeout. The daemon
# deployment pair (reliable mcastd, lossless vs 1% drop over loopback UDP)
# runs at 100x: each op is a full 17-host socket-fabric run.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkReliable|BenchmarkCollectives|BenchmarkEventSimMulticast|BenchmarkLive|BenchmarkNewMeshSystem4096|BenchmarkPlanOptimal100k' \
		-benchmem -benchtime 200x ./internal/sim ./internal/live .
	$(GO) test -run '^$$' -bench 'BenchmarkCheckCases' \
		-benchmem -benchtime 25x -timeout 20m ./internal/check
	$(GO) test -run '^$$' -bench 'BenchmarkDaemonReliable' \
		-benchmem -benchtime 100x ./internal/mcastd
	$(GO) test -run '^$$' -bench 'BenchmarkSched' \
		-benchmem -benchtime 3x -timeout 20m ./internal/sched
	$(GO) test -run '^$$' -bench 'BenchmarkPsim' \
		-benchmem -benchtime 3x -timeout 20m ./internal/psim

# Bench build: bench/ is its own module (the root build and tests do not
# see it) and compiles against exported surface only — live.RunReliable,
# live.ReliableConfig, mcastd.RunReliable, mcastd.Config, sched.Scheduler
# and the result fields: the daemon's result through live.ReliableResult,
# sched.Result's FinishAt through its embedded live.SessionResult.
# Vetting and testing it here means a refactor cannot break the
# benchmark unnoticed; its tests include a smoke run of every workload.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Examples: the eight demo binaries under examples/ have no tests; each is
# deterministic and runs in well under a second, so running them all —
# a panic or a failed delivery in one fails the target — is their smoke test.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

ci: check surface staticcheck live-race bench-build examples figures-check mcastcheck chaos-soak net-soak daemon-soak sched-soak psim-soak virtual-soak

figures:
	$(GO) run ./cmd/figures -csv -out figures

# Figures check: regenerates every figure file (tables and CSVs) into a
# temp directory, once at GOMAXPROCS=1 and once at the default, and fails
# on any difference from the committed figures/, whose numbers README.md
# and EXPERIMENTS.md quote. The sweep trials run on GOMAXPROCS goroutines,
# so the two runs also hold the tables independent of the worker count.
# About 25 s per run on 2 vCPUs.
figures-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/figures" ./cmd/figures || exit 1; \
	for procs in 1 default; do \
		echo "cmd/figures -csv at GOMAXPROCS=$$procs"; \
		if [ $$procs = default ]; then unset GOMAXPROCS; else export GOMAXPROCS=$$procs; fi; \
		"$$dir/figures" -csv -out "$$dir/$$procs" > /dev/null && diff -r figures "$$dir/$$procs" || exit 1; \
	done

# Lines: non-test Go lines (wc -l) per package directory, bench/ excluded
# — the figure behind every "lines removed" claim in CHANGES.md.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

clean:
	$(GO) clean ./...
