# Convenience entry points around dune.  `make check` is the full
# gate: build, tests (which already include both static-analysis
# stages via @lint), and machine-readable SARIF reports for both
# analyzers under _build/sarif/.

BUILD := _build/default
SARIF := _build/sarif

.PHONY: all build test lint sema sema-self sarif check bench bench-dp bench-json bench-baseline perf-gate bench-sema trace metrics-demo audit-demo clean

all: build

build:
	dune build

test:
	dune runtest

# both static-analysis stages: dcache_lint (parsetree) + dcache_sema (typedtree)
lint:
	dune build @lint

sema:
	dune build @sema

# the analyzers must hold themselves to the repo's determinism rules:
# run dcache_lint over tools/ (no baseline, no excuses)
sema-self: build
	$(BUILD)/tools/lint/dcache_lint.exe tools

# SARIF artifacts for CI upload; the exit status still gates.
# --stats prints per-rule finding counts and the analysis wall-time.
sarif: build
	dune build @sema
	mkdir -p $(SARIF)
	$(BUILD)/tools/lint/dcache_lint.exe --baseline tools/lint/baseline.txt \
	  --sarif $(SARIF)/dcache_lint.sarif lib bin bench examples
	$(BUILD)/tools/sema/dcache_sema.exe --baseline tools/sema/baseline.txt \
	  --source-root $(BUILD) --scope lib/ --stats \
	  --sarif $(SARIF)/dcache_sema.sarif $(BUILD)

check: build test sarif sema-self audit-demo

bench: build
	dune exec bench/main.exe -- quick

# kernel-only subset: the offline DP group, the gated streaming push,
# and the direct word/memo probes — for tight loops on the hot paths
bench-dp: build
	dune exec bench/main.exe -- dp

# machine-readable timing/allocation snapshot (see docs/PERFORMANCE.md)
bench-json: build
	dune exec bench/main.exe -- quick json BENCH_results.json

# refresh the committed baseline the perf gate compares against
bench-baseline: build
	dune exec bench/main.exe -- quick json BENCH_baseline.json

# fail on >25% regression of the streaming-push hot path vs the baseline
perf-gate: build
	dune exec bench/perf_gate.exe

# Chrome/Perfetto trace of the quick bench suite (see
# docs/OBSERVABILITY.md)
trace: build
	mkdir -p _build/trace
	dune exec bench/main.exe -- quick --trace _build/trace/quick.json
	@echo "trace written to _build/trace/quick.json (load in chrome://tracing or ui.perfetto.dev)"

# end-to-end metrics loop: serve the simulated workload on an
# ephemeral port, scrape /metrics once, then validate the exposition
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
