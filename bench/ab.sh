#!/usr/bin/env bash
# Parent-vs-change ledger pairs:
#
#   bash bench/ab.sh PARENT_REV SEEDS        (or: make ledger-ab PARENT=REV SEEDS=1-10)
#   bash bench/ab.sh --layers PARENT_REV SEEDS   (or: make ledger-layers PARENT=REV SEEDS=1-3)
#   bash bench/ab.sh --heap PARENT_REV [SEEDS]   (or: make ledger-heap PARENT=REV SEEDS=1-3)
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
# With --heap it sweeps the minor heap instead, as docs/PERFORMANCE.md
# ("Why `top_heap_mb` jumps") does by hand: both sides at each seed
# (default 1), alternating, under OCAMLRUNPARAM=s= each of 128k, 160k,
# 192k, 224k, 256k, 288k, 320k and 384k words.  For each workload and
# seed it prints both sides' top_heap_mb per size and their min-max,
# and one verdict:
#
#   lower level    every change run is under every parent run
#   higher level   every change run is over every parent run
#   modes          anything else
#
# It exits 1 if a side's words figure at one seed moves by more than
# 0.001 words per request between two sizes: the minor heap must move
# the peak, never what a path allocates.  (The serve path's scrape prints
# wall-clock quantiles, so its text and its words move by a few 1e-4
# from run to run at any one size.)
# It edits neither copy; the raw runs stay in the directory it prints.
# Needs bash, git, tar, jq.
set -euo pipefail

mode=pairs
case "${1:-}" in
  --layers) mode=layers; shift ;;
  --heap) mode=heap; shift ;;
esac
trace=0
if [ "$mode" = layers ]; then trace=1; fi
if [ "$mode" = heap ] && [ $# -eq 1 ]; then
  set -- "$1" 1
fi
if [ $# -ne 2 ]; then
  echo "usage: bash bench/ab.sh [--layers] PARENT_REV SEEDS   (SEEDS like 1-10,23)" >&2
  echo "       bash bench/ab.sh --heap PARENT_REV [SEEDS]     (default seed 1)" >&2
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

defs='
  def quantile($p): sort as $a | ((($a | length) - 1) * $p) as $x | ($x | floor) as $i
    | $a[$i] + (($a[[$i + 1, ($a | length) - 1] | min] - $a[$i]) * ($x - $i));
  def fmt: if . == null then "-" else (. * 10000 | round / 10000 | tostring) end;'
failed='group_by(.side)[] | "\(.[0].side): failed \(map(.failed) | add) of \(map(.attempted) | add)"'

run() { # side workload seed [minor heap size]
  local line
  line=$(env ${4:+OCAMLRUNPARAM=s=$4} bash "$work/$1/bench/ledger/run.sh" --workload "$2" \
    --seed "$3" --seconds 0 --trace "$trace" 2>> "$work/$1.log" | tail -n 1)
  jq -c --arg side "$1" --arg workload "$2" --argjson seed "$3" --arg size "${4:-}" \
    '{side: $side, workload: $workload, seed: $seed, size: $size} + .' <<< "$line" >> "$runs"
}

if [ "$mode" = heap ]; then
  sizes=(128k 160k 192k 224k 256k 288k 320k 384k)
  pair=0
  for w in "${workloads[@]}"; do
    for seed in "${seeds[@]}"; do
      for size in "${sizes[@]}"; do
        if ((pair % 2 == 0)); then run parent "$w" "$seed" "$size"; run change "$w" "$seed" "$size"
        else run change "$w" "$seed" "$size"; run parent "$w" "$seed" "$size"; fi
        pair=$((pair + 1))
        echo "pair $pair: $w seed $seed s=$size" >&2
      done
    done
  done
  echo "$rev vs working tree, seeds ${seeds[*]}, minor heap ${sizes[*]} words; raw runs in $runs"
  jq -rs --slurpfile bench "$bench" '
    def fmt: . * 100 | round / 100 | tostring;
    . as $runs
    | ($bench[0].workloads[].name) as $w
    | ([$runs[] | select(.workload == $w) | .seed] | unique[]) as $seed
    | [$runs[] | select(.workload == $w and .seed == $seed)] as $rows
    | ([$rows[] | select(.side == "parent") | .metrics.top_heap_mb.value]) as $p
    | ([$rows[] | select(.side == "change") | .metrics.top_heap_mb.value]) as $c
    | ([$w, $seed, "parent"] + ($p | map(fmt)) + ["\($p | min | fmt)-\($p | max | fmt)"]),
      ([$w, $seed, "change"] + ($c | map(fmt)) + ["\($c | min | fmt)-\($c | max | fmt)"]),
      [$w, $seed, "verdict",
       (if ($c | max) < ($p | min) then "lower level"
        elif ($c | min) > ($p | max) then "higher level"
        else "modes" end)]
    | @tsv' "$runs" \
    | awk -F'\t' -v sizes="${sizes[*]}" '
        BEGIN { n = split(sizes, s, " "); printf "%-17s %4s %-8s", "workload", "seed", "side"
                for (i = 1; i <= n; i++) printf " %7s", s[i]; printf "  %s\n", "min-max" }
        $3 == "verdict" { printf "%-17s %4s %-8s %s\n", $1, $2, $3, $4; next }
        { printf "%-17s %4s %-8s", $1, $2, $3; for (i = 4; i < NF; i++) printf " %7s", $i
          printf "  %s\n", $NF }'
  jq -rs "$failed" "$runs"
  moved=$(jq -rs '
    map({side, workload, seed,
         words: (.metrics | with_entries(select(.key | test("words_per_req$"))) | map_values(.value))})
    | group_by([.side, .workload, .seed])[]
    | . as $g
    | ($g[0].words | keys[]) as $k
    | [$g[] | .words[$k]] as $v
    | select(($v | max) - ($v | min) > 0.001)
    | "\($g[0].workload) seed \($g[0].seed) \($g[0].side): \($k) moves with the minor heap (\($v | min)-\($v | max))"
    ' "$runs")
  if [ -n "$moved" ]; then
    echo "$moved" >&2
    exit 1
  fi
  exit 0
fi

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
