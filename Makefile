GO ?= go

.PHONY: build test race bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel engine's safety proof: machines share no mutable state —
# neither across experiment cells nor across fleet nodes.
race:
	$(GO) test -race ./internal/experiments/... ./internal/sim/... ./internal/fleet/... ./internal/par/... ./internal/xlatpolicy/...

# The simulator benchmark: every workload, with spreads and a digest check
# of the simulated output (see simbench/README.md).
bench:
	bash simbench/run.sh -workload all
