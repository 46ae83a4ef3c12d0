GO ?= go

.PHONY: build vet test race check shard-equiv soak soak-dist service-smoke bench bench-obs trace-demo experiments clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The gate run before every commit: compile everything, vet, and run the
# full suite under the race detector.
check: build vet race shard-equiv

# The sharded-simulation equivalence suite on its own under the race
# detector: every paper scheme over the standard workloads at shard
# counts {1,2,3,8,16} bit-identical to sequential, the one-shard inline
# contract, the table-driven Dir1NB core against its executable
# specification, the golden fingerprints pinning every protocol core's
# exact results, the shared paged block-state store's unit tests, the
# shard fault tests (injected panic -> structured error, no goroutine
# leaks), and cmd/dirsim's single SimulateSharded dispatch (sharded CSV
# identical to sequential, sim.shard and simulate.finish journal events).
shard-equiv:
	$(GO) test -race -count=1 \
		-run 'TestSharded|TestShardOf|TestEngineShard|TestDir1NBTable|TestGoldenFingerprints|TestBlockStore' \
		./internal/sim ./internal/engine ./internal/core
	$(GO) test -race -count=1 -run 'TestRunSharded|TestRunWithJournal' ./cmd/dirsim

# Run the fault-injection soak under the race detector: the widened
# fixed-seed fault matrix (DIRSIM_SOAK=1) plus every fault and hardening
# test in the engine, faults, and CLI packages. Asserts the two fault-run
# invariants — same seed, same failure set; survivors bit-identical to a
# clean run — with races checked throughout.
soak:
	DIRSIM_SOAK=1 $(GO) test -race -count=1 \
		-run 'Fault|Panic|Retry|Timeout|Truncat|Corrupt|Poison|Cancel|Refcount|ExecuteAll|Leak|Spec' \
		./internal/engine ./internal/faults ./cmd/experiments

# Run the distributed-execution soak under the race detector: a
# coordinator and an in-process worker fleet under every transport fault
# class (drops, dropped replies, duplicates, wire corruption, injected
# latency, disconnects, partition windows, worker crashes), worker-side
# shard panics crossing the wire as structured errors, and a total fleet
# kill degrading to local — asserting same seed same outcome, survivors
# bit-identical to a clean sequential run, balanced dist.* books, and no
# goroutine leaks. Also runs the real-process fleet e2e (dirsimd -fleet
# + two dirsimw workers, bit-identical to plain dirsimd) and the
# multi-process store sharing race.
soak-dist:
	DIRSIM_SOAK=1 $(GO) test -race -count=1 \
		-run 'TestDistSoak|TestFleet|TestStoreMultiProcess' \
		./internal/dist ./cmd/dirsimd ./internal/store

# Smoke the experiment service end to end under the race detector: the
# durable store and admission/service unit suites, plus the real-process
# dirsimd tests — two processes sharing one store directory (second run
# bit-identical, zero simulations) and per-tenant quota 429s. The drain
# test asserts no goroutines leak across a full serve/drain cycle.
service-smoke:
	$(GO) test -race -count=1 ./internal/store ./internal/service ./cmd/dirsimd

bench:
	$(GO) test -bench=. -benchmem ./...

# Measure the observability overhead — the hot loop with telemetry off
# (the default nil path) and on (ProtoSampler at stride 64), plus an
# uncached engine run without and with the full tracing stack (Recorder
# + tracer + TraceContext) and with journal shipping on top (gated under
# 3%) — and write BENCH_obs.json.
bench-obs:
	DIRSIM_BENCH_JSON=1 $(GO) test -run TestWriteObsBenchJSON -v .

# Produce a sample execution trace from the POPS workload: trace-demo.json
# is Chrome trace-event JSON — open it in Perfetto (ui.perfetto.dev) or
# chrome://tracing to see the scheme simulations and sampled coherence
# events (see EXPERIMENTS.md, "Reading a run trace").
trace-demo:
	$(GO) run ./cmd/dirsim -workload pops -cpus 4 -refs 200000 \
		-schemes Dir1NB,Dir0B,Dragon -tracejson trace-demo.json -protosample 32
	@echo "wrote trace-demo.json — open it at https://ui.perfetto.dev"

# Regenerate every table and figure concurrently on all cores.
experiments:
	$(GO) run ./cmd/experiments -run all -parallel 0

clean:
	$(GO) clean ./...
