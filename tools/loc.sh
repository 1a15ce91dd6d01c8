#!/usr/bin/env bash
# Non-test source lines per workspace crate: for every `.rs` file under
# `crates/<crate>/src`, the lines before its first `#[cfg(test)]` (the
# whole file when it has none). Prints one `<crate> <lines>` row per crate,
# then the total.
#
# Usage: bash tools/loc.sh [REPO_ROOT]   (default: the repository holding
# this script)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
for dir in "$root"/crates/*/; do
  crate="$(basename "$dir")"
  [ -d "$dir/src" ] || continue
  lines=0
  while IFS= read -r -d '' file; do
    n="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit }
              END { if (!found) print NR }' "$file")"
    lines=$((lines + n))
  done < <(find "$dir/src" -name '*.rs' -print0)
  printf '%-16s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
