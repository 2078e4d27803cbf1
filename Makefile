# Convenience entry points around dune.  `make check` is the full
# gate: build, tests (which already include the static analyzer via
# @lint), and its machine-readable SARIF report under _build/sarif/.

BUILD := _build/default
SARIF := _build/sarif

.PHONY: all build test lint sema sarif check bench-baseline perf-gate ledger-ab ledger-layers ledger-heap alloc-sites bench-sema trace metrics-demo audit-demo clean

all: build

build:
	dune build

test:
	dune runtest

# the static analyzer, dcache_sema (typedtree, R1-R4 and S2-S8)
lint:
	dune build @lint

sema:
	dune build @sema

# SARIF artifact for CI upload; the exit status still gates.
# --stats prints per-rule finding counts and the analysis wall-time.
sarif: build
	dune build @sema
	mkdir -p $(SARIF)
	$(BUILD)/tools/sema/dcache_sema.exe --baseline tools/sema/baseline.txt \
	  --source-root $(BUILD) --stats --sarif $(SARIF)/dcache_sema.sarif $(BUILD)

check: build test sarif audit-demo

# record the push-time baseline the perf gate compares against
bench-baseline: build
	dune exec bench/perf_gate.exe -- --record

# fail on >25% regression of the streaming-push hot path vs the baseline
perf-gate: build
	dune exec bench/perf_gate.exe

# the end-to-end ledger on PARENT and on the working tree, seed by
# seed, with a verdict per metric against BENCHMARK.json's bounds
# (bench/ab.sh); the default PARENT compares an uncommitted change
# with its base
PARENT ?= HEAD
SEEDS ?= 1-10
ledger-ab:
	bash bench/ab.sh $(PARENT) $(SEEDS)

# the same pairs traced: every words and ns figure per request, end to
# end and per layer, as both sides' medians and their difference
# (words repeat per seed, so three seeds are the default here)
ledger-layers: SEEDS = 1-3
ledger-layers:
	bash bench/ab.sh --layers $(PARENT) $(SEEDS)

# top_heap_mb on both sides at each seed (default 1) over eight minor
# heap sizes (OCAMLRUNPARAM=s=128k..384k), with a verdict per workload
# and seed: a lower or higher level, or modes; exits 1 if a words
# figure moves with the minor heap
ledger-heap: SEEDS = 1
ledger-heap:
	bash bench/ab.sh --heap $(PARENT) $(SEEDS)

# the allocation sites of one library module, from its Cmm compiled
# with dune's own flags (bench/alloc_sites.sh): make alloc-sites
# FILE=lib/obs/audit.ml
alloc-sites:
	bash bench/alloc_sites.sh $(FILE)

# Chrome/Perfetto trace of the quick experiment tables (see
# docs/OBSERVABILITY.md)
trace: build
	mkdir -p _build/trace
	dune exec bin/dcache.exe -- experiments --quick --trace-json _build/trace/quick.json
	@echo "trace written to _build/trace/quick.json (load in chrome://tracing or ui.perfetto.dev)"

# end-to-end metrics loop: serve the simulated workload on an
# ephemeral port, scrape /metrics once, stop the server with SIGTERM
# (it must exit 0 and leave no <pid>.events ring file), then validate
# the exposition
# with the golden 0.0.4 parser (see docs/OBSERVABILITY.md)
metrics-demo: build
	@set -e; \
	rm -f _build/metrics-demo.log; \
	$(BUILD)/bin/dcache.exe serve-metrics --metrics-port 0 --batches 0 \
	  > _build/metrics-demo.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	port=""; \
	for i in $$(seq 1 100); do \
	  port=$$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' _build/metrics-demo.log); \
	  [ -n "$$port" ] && break; sleep 0.1; \
	done; \
	[ -n "$$port" ] || { echo "metrics-demo: server never announced a port"; exit 1; }; \
	curl -sf "http://127.0.0.1:$$port/metrics" > _build/metrics-demo.prom; \
	kill $$pid 2>/dev/null || true; \
	wait $$pid || { echo "metrics-demo: the server did not exit 0 on SIGTERM"; exit 1; }; \
	[ ! -e $$pid.events ] || { echo "metrics-demo: $$pid.events left behind"; exit 1; }; \
	$(BUILD)/bin/dcache.exe check-metrics _build/metrics-demo.prom; \
	grep -qF 'dcache_serve_item_sc_vs_opt{item="item0"}' _build/metrics-demo.prom \
	  || { echo "metrics-demo: no labeled family in the exposition"; exit 1; }; \
	echo "metrics-demo: OK (exposition saved to _build/metrics-demo.prom, labeled families present)"

# replay the bundled request traces through the streaming
# competitive-ratio auditor: per-window ratios on stdout, a validated
# Prometheus exposition with the audit.* families, and --strict so a
# Theorem-3 bound violation fails the build (see docs/OBSERVABILITY.md)
audit-demo: build
	@set -e; \
	for t in 15041:6 17018:4; do \
	  trace=$${t%%:*}; m=$${t##*:}; \
	  out=_build/audit-demo-$$trace.prom; \
	  $(BUILD)/bin/dcache.exe audit --trace test/data/$$trace.events -m $$m \
	    --strict --metrics-out $$out; \
	  $(BUILD)/bin/dcache.exe check-metrics $$out; \
	  grep -q '^dcache_audit_bound_violations_total 0$$' $$out \
	    || { echo "audit-demo: violations counter not zero in $$out"; exit 1; }; \
	done; \
	echo "audit-demo: OK (both traces within the Theorem-3 bound)"

# cold vs. incremental wall-time of the sema pass
bench-sema:
	dune build @sema
	dune exec bench/sema_bench.exe

clean:
	dune clean
