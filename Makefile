GO ?= go

.PHONY: build test race bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector over every package with concurrent code: the
# memory-pressure and device layers, the parallel engines (machines share
# no mutable state across experiment cells, fleet nodes or core shards),
# the fleet and the translation policies. CI runs exactly this target.
race:
	$(GO) test -race ./internal/physmem/... ./internal/kernel/... ./internal/sim/... ./internal/telemetry/... ./internal/experiments/... ./internal/memsys/... ./internal/par/... ./internal/fleet/... ./internal/xlatpolicy/... ./internal/loadgen/...

# The simulator benchmark: every workload, with spreads and a digest check
# of the simulated output (see simbench/README.md).
bench:
	bash simbench/run.sh -workload all
