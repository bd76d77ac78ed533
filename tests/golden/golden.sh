#!/usr/bin/env bash
# Golden corpus: reruns a fixed set of `wavm3` commands and diffs their
# stdout against the recorded files next to this script. A refactor
# that is meant to change no answer must leave every file matching.
#
#   tests/golden/golden.sh path/to/wavm3            # check
#   tests/golden/golden.sh path/to/wavm3 --record   # (re)write the files
#
# Only wall-clock fields are masked, and every mask is listed in MASKS
# below; all other output must repeat byte for byte.
set -euo pipefail

bin=$1
mode=${2:-check}
here=$(cd "$(dirname "$0")" && pwd)

# name|wavm3 arguments; the recorded stdout lives in <name>.txt.
CASES=(
  "tables|tables --fast"
  "serve_bench|serve-bench --requests 4000 --threads 4 --repeat-fraction 0.9 --reloads 2 --seed 11"
  "plan|plan --hosts 256 --seed 3"
  "chaos|chaos --hosts 128 --seed 3"
)

# sed -E expressions, applied in order to every command's stdout.
MASKS=(
  # serve-bench endpoint rows: keep the endpoint name and request
  # count, mask qps, mean, p50, p95 and p99.
  's/^((predict|submit|predict_batch) +[0-9]+)( +[0-9.]+){5}$/\1 <timing>/'
  # serve-bench stream line: elapsed seconds and throughput.
  's/^(stream   : [0-9]+ requests in )[0-9.]+ s -> [0-9]+ (predictions\/s)$/\1<s> s -> <rate> \2/'
)

mask() {
  local args=()
  for m in "${MASKS[@]}"; do args+=(-e "$m"); done
  sed -E "${args[@]}"
}

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
status=0
for case in "${CASES[@]}"; do
  name=${case%%|*}
  read -r -a argv <<<"${case#*|}"
  if ! "$bin" "${argv[@]}" >"$scratch/raw" 2>"$scratch/err"; then
    echo "golden: '$name' ($bin ${argv[*]}) failed:" >&2
    cat "$scratch/err" >&2
    status=1
    continue
  fi
  mask <"$scratch/raw" >"$scratch/$name.txt"
  if [[ $mode == --record ]]; then
    cp "$scratch/$name.txt" "$here/$name.txt"
    echo "recorded $here/$name.txt"
  elif ! diff -u "$here/$name.txt" "$scratch/$name.txt"; then
    echo "golden: '$name' output differs from $here/$name.txt" >&2
    status=1
  fi
done
exit $status
