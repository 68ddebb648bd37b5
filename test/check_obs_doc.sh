#!/bin/sh
# Observability doc drift gate: every hot-path counter name in
# lib/obs/sink.ml's [stat_name] must appear in OBSERVABILITY.md's event
# taxonomy table. The table abbreviates families with brace forms such
# as `snic_cache_{hit,miss,fill,evict}_total`; they are expanded first.
# Usage: sh check_obs_doc.sh [repo-root]
set -e

root=${1:-.}
sink="$root/lib/obs/sink.ml"
doc="$root/OBSERVABILITY.md"

# The string literal on each arm of `let stat_name = function`.
names=$(awk '
  /^let stat_name = function/ { on = 1; next }
  on && !/^ *\|/ { on = 0 }
  on && match($0, /"[^"]*"/) { print substr($0, RSTART + 1, RLENGTH - 2) }
' "$sink")

# Backticked tokens of the table rows under "## Event taxonomy", with
# every {a,b,...} group expanded.
documented=$(awk '
  /^## Event taxonomy/ { on = 1; next }
  on && /^## / { on = 0 }
  on && /^\|/ { n = split($0, parts, "`"); for (i = 2; i <= n; i += 2) print parts[i] }
' "$doc" | awk '
  function expand(s,   pre, body, post, n, parts, i) {
    if (match(s, /\{[^{}]*\}/)) {
      pre = substr(s, 1, RSTART - 1)
      body = substr(s, RSTART + 1, RLENGTH - 2)
      post = substr(s, RSTART + RLENGTH)
      n = split(body, parts, ",")
      for (i = 1; i <= n; i++) expand(pre parts[i] post)
    } else print s
  }
  { expand($0) }
')

if [ -z "$names" ]; then
  echo "check_obs_doc FAIL: found no stat_name strings in $sink" >&2
  exit 1
fi

status=0
count=0
for n in $names; do
  count=$((count + 1))
  if ! printf '%s\n' "$documented" | grep -qxF "$n"; then
    echo "check_obs_doc FAIL: $n (stat_name in lib/obs/sink.ml) is missing from OBSERVABILITY.md's event taxonomy table" >&2
    status=1
  fi
done

[ "$status" -eq 0 ] && echo "all $count stat_name counters are in OBSERVABILITY.md's taxonomy table"
exit "$status"
