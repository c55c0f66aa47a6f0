#!/usr/bin/env bash
# A/B the benchmark between REV and HEAD:
#   bench/suite/ab.sh REV [N=10]
# Exports both commits into a temporary directory, builds each with HEAD's
# bench/suite and BENCHMARK.json (so both sides run identical benchmark
# code), runs N pairs of full reports alternating which side goes first,
# then prints `bench.exe --compare` of the two sides.  Reports are kept
# in _build/ab/ of this checkout.
set -euo pipefail
rev=${1:?usage: bench/suite/ab.sh REV [N]}
n=${2:-10}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out="$root/_build/ab"
rm -rf "$out"
mkdir -p "$out"

for side in base head; do
  mkdir -p "$tmp/$side"
  commit=$([ "$side" = base ] && echo "$rev" || echo HEAD)
  git -C "$root" archive "$commit" | tar -x -C "$tmp/$side"
done
rm -rf "$tmp/base/bench/suite"
cp -r "$tmp/head/bench/suite" "$tmp/base/bench/suite"
cp "$tmp/head/BENCHMARK.json" "$tmp/base/BENCHMARK.json"
for side in base head; do
  (cd "$tmp/$side" && dune build --root . ./bench/suite/bench.exe)
done

declare -A sha=([base]=$(git -C "$root" rev-parse "$rev") [head]=$(git -C "$root" rev-parse HEAD))
run() { # side seed
  (cd "$tmp/$1" && BENCH_REV="${sha[$1]}" ./_build/default/bench/suite/bench.exe \
     --seed "$2" --json "$out/$1-$2.json" > "$out/$1-$2.log")
}
for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then run base "$i"; run head "$i"
  else run head "$i"; run base "$i"; fi
  echo "pair $i of $n done"
done

cd "$tmp/head"
./_build/default/bench/suite/bench.exe --compare "$out"/base-*.json -- "$out"/head-*.json
