GO ?= go

.PHONY: all build vet test race flake fuzz faultcheck lint vuln bench-smoke bench bench-json scenario-ci ci clean

all: build

build:
	$(GO) build ./...

# The scaled clock parks on a timerfd on Linux; the other GOOS lines keep
# its portable fallback (internal/vclock/park_other.go) compiling.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/vclock
	GOOS=windows $(GO) vet ./internal/vclock
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The benchmark line puts the parallel warm path (64 callers on one
# client, every owner's lock in play) under the race detector; -cpu 1,4
# runs it in parallel, through both writer queues, on any runner.
race:
	$(GO) test -race ./...
	$(GO) test -race -run '^$$' -bench WarmInvokeParallel -benchtime 200x -cpu 1,4 ./internal/core

# Flake hunt: the concurrent packages twenty times over under the race
# detector. A test that passes once can still lose an interleaving most
# of the time (the lease-revocation race merged at 65 % failure because
# CI ran it once); any failure here is a bug, not noise. The root
# package's TestCluster* tests drive real platforms through the cluster
# router (concurrent spread, failover, drain), so they run here too.
flake:
	$(GO) test -count=20 -race ./internal/wire ./internal/core ./internal/client ./internal/accel ./internal/cplane ./internal/shm ./internal/scenario
	$(GO) test -count=20 -race -run '^TestCluster' .

# Short fuzzing smoke run over the wire-protocol decoder, the
# hand-written header codec (held to encoding/json's output) and the
# server session (scripted client operations over one connection).
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzHeaderEncode -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzHeaderDecode -fuzztime=10s ./internal/wire
	$(GO) test -run=FuzzSession -fuzz=FuzzSession -fuzztime=10s ./internal/core

# End-to-end invocation-path robustness check through a fault-injecting
# listener (see internal/faults).
faultcheck:
	$(GO) run ./cmd/kaasbench -faultcheck

# Static analysis. Uses golangci-lint (config in .golangci.yml) when it
# is installed — CI always installs it — and falls back to go vet on
# hosts that lack it so the target never silently vanishes.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not found; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Known-vulnerability scan. Skips with a notice when govulncheck is not
# installed (CI installs it and treats findings as failures).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not found; skipping (CI runs it)"; \
	fi

# The repository's benchmark (BENCHMARK.json) lives in the nested module
# bench/, which the root module's build and test do not reach although it
# compiles against internal/wire, internal/client and internal/core.
# bench-smoke builds it and runs its unit tests and a 0.3 s pass of the
# workloads (~3 s); bench is the full end-to-end pass, pinned to one CPU.
bench-smoke:
	cd bench && $(GO) test ./...

bench:
	bash bench/run.sh

# One pass over the paper-figure benchmarks, recorded as
# bench_figures.txt.
bench-json:
	$(GO) test -run='^$$' -bench=Fig -benchtime=1x . | tee bench_figures.txt

# Scenario gate: run the replay/chaos matrix tests, then replay the full
# matrix twice with the same seed and require byte-identical deterministic
# output — every invariant must pass and the harness must be reproducible
# — and, for a seed with committed verdicts (seed 1), identical to those:
# a change that moves a verdict line has to move the committed file too.
SCENARIO_SEED ?= 1
SCENARIO_GOLDEN = internal/scenario/testdata/verdicts_seed$(SCENARIO_SEED).txt
scenario-ci:
	$(GO) test -run 'TestScenario|TestInvariants|TestClassify|TestSynthesize|TestParseCSV|TestChaosTransitions' \
		-count=1 ./internal/scenario ./cmd/kaasbench
	$(GO) run ./cmd/kaasbench -scenario all -seed $(SCENARIO_SEED) > scenario_run1.txt
	$(GO) run ./cmd/kaasbench -scenario all -seed $(SCENARIO_SEED) > scenario_run2.txt
	diff scenario_run1.txt scenario_run2.txt
	@if [ -f $(SCENARIO_GOLDEN) ]; then diff $(SCENARIO_GOLDEN) scenario_run1.txt; fi
	@echo "scenario matrix passed and reproduced byte-for-byte (seed $(SCENARIO_SEED))"

ci: vet build test race fuzz scenario-ci

clean:
	$(GO) clean ./...
