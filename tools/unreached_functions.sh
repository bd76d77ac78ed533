#!/usr/bin/env bash
# Lists the wavm3:: functions defined in src/ that no production binary
# keeps: the CLI (`wavm3`), every bench, every example and perfbench.
#
# Each binary is built without optimisation or inlining, one section per
# function, and linked with --gc-sections, so a function survives in a
# binary only if something in that binary can call it. The script prints
# the distinct functions that the src/ libraries define and no binary
# keeps, sorted, then a line with their count. Functions only tests call
# show up here: each is either adopted by a production path or deleted.
#
#   tools/unreached_functions.sh [BUILD_DIR]    (default: build-unreached)
#
# It is a gate over tools/unreached_allowlist.txt, which names the
# functions allowed to stay unreached (test support, test oracles, and
# functions a named ROADMAP item will adopt), one per line as
#   <demangled name>  # <reason>
# It exits 1 when a function is unreached but not on the allowlist, when
# an allowlist entry is no longer unreached (a stale entry), or when an
# entry has no reason; and non-zero when the build itself fails.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(realpath -m "${1:-$root/build-unreached}")
allowlist=$root/tools/unreached_allowlist.txt
jobs=$(nproc)
flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "building production binaries into $out ..." >&2
cmake -G "Unix Makefiles" -S "$root" -B "$out/repo" "${flags[@]}" >/dev/null
cmake --build "$out/repo" --target wavm3_cli -j "$jobs" >/dev/null
# The Makefile generator builds every target of one directory here.
make -C "$out/repo/bench" -j "$jobs" >/dev/null
make -C "$out/repo/examples" -j "$jobs" >/dev/null
cmake -G "Unix Makefiles" -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" >/dev/null
cmake --build "$out/perfbench" --target perfbench -j "$jobs" >/dev/null

# Defined function symbols (text, weak, local text) whose mangled name
# lies in namespace wavm3 (member, const member or local entity such as
# a lambda; not a std:: template instantiated on a wavm3 type),
# demangled, one per distinct name.
functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk 'NF == 3 && $2 ~ /^[TtWw]$/ && $3 ~ /^_Z[NKZ]*5wavm3/ { print $3 }' |
    c++filt | sort -u
}

mapfile -t libs < <(find "$out/repo/src" -name 'libwavm3_*.a' | sort)
mapfile -t bins < <({
  echo "$out/repo/wavm3"
  find "$out/repo/bench" "$out/repo/examples" -maxdepth 1 -type f -perm -u+x
  echo "$out/perfbench/perfbench"
} | sort)

defined=$(mktemp)
kept=$(mktemp)
unreached=$(mktemp)
allowed=$(mktemp)
trap 'rm -f "$defined" "$kept" "$unreached" "$allowed"' EXIT
functions "${libs[@]}" >"$defined"
functions "${bins[@]}" >"$kept"

comm -23 "$defined" "$kept" >"$unreached"
cat "$unreached"
echo "unreached: $(wc -l <"$unreached") distinct wavm3:: functions" \
  "($(wc -l <"$defined") defined in src/, ${#bins[@]} production binaries)"

# The gate. Blank lines and lines starting with '#' are comments.
status=0
entries=$(grep -v -e '^#' -e '^[[:space:]]*$' "$allowlist" || true)
if [[ -n $entries ]] && unexplained=$(grep -v -e '  # [^[:space:]]' <<<"$entries"); then
  echo "allowlist entries without a '  # reason':" >&2
  printf '  %s\n' "$unexplained" >&2
  status=1
fi
sed 's/  # .*$//' <<<"$entries" | sort -u >"$allowed"
if missing=$(comm -23 "$unreached" "$allowed" | grep .); then
  echo "unreached but not on $allowlist (adopt or delete them):" >&2
  printf '  %s\n' "$missing" >&2
  status=1
fi
if stale=$(comm -13 "$unreached" "$allowed" | grep .); then
  echo "on $allowlist but no longer unreached (drop the entries):" >&2
  printf '  %s\n' "$stale" >&2
  status=1
fi
exit "$status"
