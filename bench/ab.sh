#!/usr/bin/env bash
# Parent-vs-change ledger pairs:
#
#   bash bench/ab.sh PARENT_REV SEEDS        (or: make ledger-ab PARENT=REV SEEDS=1-10)
#   bash bench/ab.sh --layers PARENT_REV SEEDS   (or: make ledger-layers PARENT=REV SEEDS=1-3)
#
# SEEDS is a comma-separated list of seeds and ranges, such as 1-10,23.
# The script extracts PARENT_REV with `git archive` and copies the
# working tree (tar, without _build and .git) into a fresh directory
# under $TMPDIR, then runs each copy's bench/ledger/run.sh with
# --seconds 0 --trace 0 for every workload of BENCHMARK.json and every
# seed, alternating which side runs first.  For each workload and
# end-to-end metric it prints both sides' median and quartiles, the
# pairs the change wins, and a verdict against the metric's relative
# bound in BENCHMARK.json:
#
#   unresolved  either side's q3 - q1 is wider than the bound allows,
#               and not every change run beats every parent run
#   worse       the change's median is worse by more than the bound
#   better      the change wins at least 9 pairs in 10, and its median
#               moved past the parent's q3 - q1
#   same        anything else
#
# and the `failed` totals of both sides.  With --layers the runs are
# traced (--trace 1) instead, and for each workload it prints every
# per-request words and ns figure, end to end and per layer, as both
# sides' medians and the change's difference: where a saving sits.
# Words repeat exactly for a seed, so a few seeds are enough there.
# It edits neither copy; the raw runs stay in the directory it prints.
# Needs bash, git, tar, jq.
set -euo pipefail

trace=0
if [ "${1:-}" = --layers ]; then
  trace=1
  shift
fi
if [ $# -ne 2 ]; then
  echo "usage: bash bench/ab.sh [--layers] PARENT_REV SEEDS   (SEEDS like 1-10,23)" >&2
  exit 2
fi
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)

seeds=()
IFS=, read -ra parts <<< "$2"
for part in "${parts[@]}"; do
  case $part in
    *-*) for ((s = ${part%-*}; s <= ${part#*-}; s++)); do seeds+=("$s"); done ;;
    *) seeds+=("$part") ;;
  esac
done

work=$(mktemp -d "${TMPDIR:-/tmp}/dcache-ab.XXXXXX")
mkdir "$work/parent" "$work/change"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
(cd "$root" && tar --exclude=./_build --exclude=./.git -cf - .) | tar -x -C "$work/change"
trap 'rm -rf "$work/parent" "$work/change"' EXIT

bench=$root/BENCHMARK.json
mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")
runs=$work/runs.jsonl
: > "$runs"

run() { # side workload seed
  local line
  line=$(bash "$work/$1/bench/ledger/run.sh" --workload "$2" --seed "$3" --seconds 0 --trace "$trace" \
    2>> "$work/$1.log" | tail -n 1)
  jq -c --arg side "$1" --arg workload "$2" --argjson seed "$3" \
    '{side: $side, workload: $workload, seed: $seed} + .' <<< "$line" >> "$runs"
}

pair=0
for seed in "${seeds[@]}"; do
  for w in "${workloads[@]}"; do
    if ((pair % 2 == 0)); then run parent "$w" "$seed"; run change "$w" "$seed"
    else run change "$w" "$seed"; run parent "$w" "$seed"; fi
    pair=$((pair + 1))
    echo "pair $pair: $w seed $seed" >&2
  done
done

echo "$rev vs working tree, seeds ${seeds[*]}; raw runs in $runs"
defs='
  def quantile($p): sort as $a | ((($a | length) - 1) * $p) as $x | ($x | floor) as $i
    | $a[$i] + (($a[[$i + 1, ($a | length) - 1] | min] - $a[$i]) * ($x - $i));
  def fmt: if . == null then "-" else (. * 10000 | round / 10000 | tostring) end;'
failed='group_by(.side)[] | "\(.[0].side): failed \(map(.failed) | add) of \(map(.attempted) | add)"'
if ((trace)); then
  jq -rs --slurpfile bench "$bench" "$defs"'
    def median: if length == 0 then null else quantile(0.5) end;
    . as $runs
    | ($bench[0].workloads[].name) as $w
    | [$runs[] | select(.workload == $w)] as $rows
    | ($rows[0].metrics | keys_unsorted[] | select(test("\\.(words|ns)_per_req$"))) as $name
    | [$rows[] | select(.side == "parent") | .metrics[$name].value // empty] as $p
    | [$rows[] | select(.side == "change") | .metrics[$name].value // empty] as $c
    | [$w, $name, ($p | median | fmt), ($c | median | fmt),
       (if ($p | length) > 0 and ($c | length) > 0 then ($c | median) - ($p | median) else null end
        | fmt)]
    | @tsv' "$runs" \
    | awk -F'\t' 'BEGIN { printf "%-17s %-34s %14s %14s %14s\n", "workload", "metric",
                          "parent median", "change median", "change - parent" }
                  { printf "%-17s %-34s %14s %14s %14s\n", $1, $2, $3, $4, $5 }'
  jq -rs "$failed" "$runs"
  exit 0
fi
jq -rs --slurpfile bench "$bench" "$defs"'
  def stats: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75)};
  . as $runs
  | $bench[0] as $b
  | ($b.workloads[].name) as $w
  | ($b.end_to_end[]) as $metric
  | [$runs[] | select(.workload == $w)] as $rows
  | [$rows[] | select(.side == "parent") | {seed, v: .metrics[$metric.name].value}] as $p
  | [$rows[] | select(.side == "change") | {seed, v: .metrics[$metric.name].value}] as $c
  | ($p | map(.v) | stats) as $ps
  | ($c | map(.v) | stats) as $cs
  | [$p[] as $x | $c[] | select(.seed == $x.seed)
      | if $metric.better == "lower" then .v < $x.v else .v > $x.v end
      | select(.)] as $wins
  | ($p | map(.v)) as $pv | ($c | map(.v)) as $cv
  | (if $metric.better == "lower" then ($cv | max) < ($pv | min) else ($cv | min) > ($pv | max) end)
      as $all_better
  | ($ps.median | fabs) as $scale
  | (if $metric.better == "lower" then $ps.median - $cs.median else $cs.median - $ps.median end)
      as $gain
  | (if ([$ps.q3 - $ps.q1, $cs.q3 - $cs.q1] | max) > $metric.bound * $scale and ($all_better | not)
     then "unresolved"
     elif -$gain > $metric.bound * $scale then "worse"
     elif ($wins | length) >= 0.9 * ($p | length) and $gain > $ps.q3 - $ps.q1 then "better"
     else "same" end) as $verdict
  | [$w, $metric.name,
     "\($ps.median | fmt) [\($ps.q1 | fmt), \($ps.q3 | fmt)]",
     "\($cs.median | fmt) [\($cs.q1 | fmt), \($cs.q3 | fmt)]",
     "\($wins | length)/\($p | length)", $verdict]
  | @tsv' "$runs" \
  | awk -F'\t' 'BEGIN { printf "%-17s %-21s %-33s %-33s %-6s %s\n", "workload", "metric",
                        "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict" }
                { printf "%-17s %-21s %-33s %-33s %-6s %s\n", $1, $2, $3, $4, $5, $6 }'
jq -rs "$failed" "$runs"
