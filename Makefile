GO ?= go

.PHONY: check build fmt vet test race fuzz fuzz-smoke bench loadbench-check obs-race metrics-smoke shard-chaos replica-chaos replica-smoke router-chaos partition-chaos

## check: everything CI should gate on — formatting, vet, race-enabled tests
## (obs-race first: the metric hot paths are the newest concurrency surface,
## shard-chaos next: panic/fault injection into live sharded traffic,
## replica-chaos after: failover/fencing/rejoin over a live pair,
## router-chaos then the routed fleet end to end — kill the primary under
## live traffic through rrc-router and lose nothing,
## partition-chaos last: P replicated pairs behind key routing — one
## pair's primary killed must not cost the other partitions a single
## error), the fuzz targets over their seed corpora, and the benchmark
## harness's own module
check: fmt vet obs-race shard-chaos replica-chaos router-chaos partition-chaos race fuzz-smoke loadbench-check

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

## obs-race: the observability layer's concurrency tests, unconditionally
## re-run (-count=1) — lock-free Record paths racing the exporter
obs-race:
	$(GO) test -race -count=1 ./internal/obs

## shard-chaos: the shard-kill chaos suite, unconditionally re-run under
## the race detector — panics and sticky WAL failures injected into live
## mixed traffic must stay contained to their shard
shard-chaos:
	$(GO) test -race -count=1 -run Shard ./cmd/rrc-server ./internal/shard

## replica-chaos: the replication chaos suite, unconditionally re-run
## under the race detector — primary kill + auto-promote must preserve
## every acked shipped write, a deposed primary must start fenced, and a
## rejoining node must truncate its divergent tail and drain lag to 0
replica-chaos:
	$(GO) test -race -count=1 -run Replica ./cmd/rrc-server ./internal/replica

## router-chaos: the routing chaos suite, unconditionally re-run under
## the race detector — with live traffic flowing through rrc-router,
## killing the primary must lose zero acked writes, reads must keep
## serving throughout, the router must converge on the promoted node
## unaided, and a rejoining deposed primary must be fenced on contact;
## plus the router's own retry-budget/hedging/topology unit suites
router-chaos:
	$(GO) test -race -count=1 -run Router ./cmd/rrc-server ./internal/router

## partition-chaos: the partitioned-fleet chaos suite, unconditionally
## re-run under the race detector — P=3 replicated pairs behind
## key-routed rrc-router, one pair's primary SIGKILLed under live mixed
## traffic: the other partitions must serve error-free, the victim must
## converge unaided with zero acked-write loss, and no epoch may leak
## across partitions; plus the partition identity/ownership unit suites
partition-chaos:
	$(GO) test -race -count=1 -run Partition ./cmd/rrc-server ./internal/shard ./internal/router ./internal/replica

## replica-smoke: end-to-end primary+standby+router soak over real
## sockets — traffic flows through rrc-router, the primary is SIGKILLed
## at half-time, the router auto-promotes the standby, and the client-
## visible error rate across the whole soak must stay under budget;
## all three /metrics scraped and validated, replication lag asserted
## back to 0 before the kill, offline forensics on both roots after
replica-smoke:
	sh scripts/replica_smoke.sh

## metrics-smoke: end-to-end /metrics check — train with -metrics-out,
## serve sharded (-shards=4), scrape, and validate the exposition with
## rrc-inspect -expfmt, including the per-shard rrc_shard_* families
metrics-smoke:
	sh scripts/metrics_smoke.sh

## fuzz-smoke: run every fuzz target over its checked-in seed corpus only
## (no mutation) — fast enough to gate on
fuzz-smoke:
	$(GO) test ./internal/core ./internal/dataset ./internal/wal -run '^Fuzz' -count=1

## loadbench-check: vet and test the benchmark harness (loadbench/, its
## own module importing tsppr internals through replace), which the root
## ./... patterns never compile — a change to an internal API it uses
## fails here, not at benchmark time
loadbench-check:
	cd loadbench && $(GO) vet ./... && $(GO) test -count=1 ./...

## bench: write BENCH_PR13.json — fixed-seed scoring throughput of the
## engine (single, batch, response-cached hit and miss) at the paper's
## |W|=100, Ω=10, K=40 (ns/op, allocs/op, items/sec); the label is
## derived from -out, never hard-coded
bench:
	$(GO) run ./cmd/rrc-bench -out BENCH_PR13.json

## fuzz: short bounded fuzzing with mutation — model loader and TSV readers
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzReadModel -fuzztime 20s
	$(GO) test ./internal/dataset -run '^$$' -fuzz FuzzReadWith -fuzztime 20s
	$(GO) test ./internal/dataset -run '^$$' -fuzz FuzzValidateReader -fuzztime 10s
