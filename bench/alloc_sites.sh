#!/usr/bin/env bash
# The allocation sites of one library module, read off the compiler's
# Cmm with exactly the flags dune uses (-opaque included):
#
#   bash bench/alloc_sites.sh lib/DIR/MODULE.ml    (or: make alloc-sites FILE=lib/DIR/MODULE.ml)
#
# It builds the module's .cmx, takes the command that compiles it from
# `dune rules -m`, and runs that command again with -dcmm, writing the
# .cmx, .o and the Cmm into a temporary directory, never over _build's
# files.  Then it prints one line per allocation site:
#
#   COUNT  WORDS  FUNCTION  LINE,COLS [via LINE,COLS]
#
# COUNT is how many allocations the Cmm makes there (the same box can
# sit on several branches), WORDS the block's size with its header (a
# boxed float is 2), FUNCTION the function whose Cmm holds them (fun@L
# for an anonymous function starting on line L), and
# LINE,COLS the source span.  A site inlined from elsewhere shows its
# own span, followed by "via" and the call it was inlined at.  An
# allocation under a flag (say [if st.record]) costs nothing while the
# flag is off: the list says where to look, the budget tests decide.
set -euo pipefail

usage() {
  echo "usage: bash bench/alloc_sites.sh lib/DIR/MODULE.ml" >&2
  exit 2
}
[ $# -eq 1 ] || usage
file=${1#./}
case $file in
  lib/*/*.ml) ;;
  *) usage ;;
esac
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
[ -f "$file" ] || usage

dir=$(dirname "$file")
lib=$(sed -n 's/^ *(name \([a-z0-9_]*\)) *$/\1/p' "$dir/dune" | head -1)
[ -n "$lib" ] || { echo "alloc_sites: no library name in $dir/dune" >&2; exit 1; }
base=$(basename "$file" .ml)
unit=${lib}__${base^}
cmx=_build/default/$dir/.$lib.objs/native/$unit.cmx

dune build "./$cmx"
# the rule's action: the tab-indented lines, continuations joined
action=$(dune rules -m "$cmx" | sed -n 's/^\t//p' | sed -e ':a' -e '/\\$/{N;s/\\\n//;ba}' | tr '\n' ' ')
compile=$(printf '%s' "$action" | tr ';' '\n' | grep -m1 'ocamlopt' || true)
[ -n "$compile" ] || { echo "alloc_sites: no ocamlopt command in the rule for $cmx" >&2; exit 1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# every path in the command is relative to _build/default; only -o moves
read -ra argv <<< "$compile"
for k in "${!argv[@]}"; do
  if [ "${argv[$k]}" = "-o" ]; then argv[$((k + 1))]=$tmp/$unit.cmx; fi
done
(cd _build/default && "${argv[@]}" -dcmm -w -a 2> "$tmp/$unit.cmm")

echo "allocation sites in $file (Cmm of ${argv[0]##*/} -opaque, as dune builds it)"
awk -v file="$file" '
  BEGIN { RS = "(" }
  /^function\{/ {
    fn = $2
    sub(/^caml[A-Za-z0-9_]*\./, "", fn)
    sub(/_[0-9]+$/, "", fn)
    # an anonymous function is named after the line it starts on
    if (fn == "fun") {
      line = $1
      sub(/^[^:]*:/, "", line)
      sub(/,.*$/, "", line)
      fn = "fun@" line
    }
    next
  }
  /^alloc\{/ {
    loc = $1
    sub(/^alloc\{/, "", loc)
    sub(/\}$/, "", loc)
    words = int($2 / 1024) + 1
    n = split(loc, chain, ";")
    site = chain[n]
    sub("^" file ":", "", site)
    if (n > 1) {
      via = chain[1]
      sub("^" file ":", "", via)
      site = site " via " via
    }
    key = fn SUBSEP words SUBSEP site
    if (!(key in count)) order[++keys] = key
    count[key]++
    total++
  }
  END {
    for (k = 1; k <= keys; k++) {
      split(order[k], f, SUBSEP)
      printf "%5d  %5d  %-28s %s\n", count[order[k]], f[2], f[1], f[3]
    }
    printf "%d sites, %d allocations in the Cmm\n", keys, total
  }
' "$tmp/$unit.cmm"
