#!/usr/bin/env bash
# Build the ledger from source and run it with the given arguments:
#   bash bench/ledger/run.sh --workload zipf-m64 --seed 3 --seconds 15 --trace 0
# Build output goes to stderr; the ledger's report, ending in one JSON
# line, to stdout.  Everything is written under the checkout's _build/.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache disabled --display quiet ./bench/ledger/ledger.exe
exec ./_build/default/bench/ledger/ledger.exe "$@"
