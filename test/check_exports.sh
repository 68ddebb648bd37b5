#!/bin/sh
# Export drift gate: every `val` in lib/**/*.mli must be referenced
# outside its own module, from lib/, bin/, bench/, perfbench/,
# examples/ or test/. An export nothing else uses is interface the
# program does not need: drop it from the .mli, or delete it if its own
# module does not use it either.
#
# Usage: sh check_exports.sh [REPO_ROOT]   (default: ..)
#
# The scan matches names, with comments stripped. A use of `val v` in
# module M is one of:
# - a path ending in `M.v` (`Machine.v`, `Nicsim.Machine.v`); a path
#   whose first component is a library only matches M in that library,
#   and a bare `M.v` inside lib/<dir>/ means lib/<dir>/m.ml if it exists;
# - `X.v` where the same file aliases M (`module X = Nicsim.Machine`);
# - `R.v` where module R re-exports M (`include M`, as `Obs` does);
# - a bare `v` in a file that opens M (`open M`, `let open M`).
# A `val` inside a nested signature (`module Hier : sig`) is matched
# by the nested module's name instead of the file's.
set -e
cd "${1:-..}"

# dir=library pairs, e.g. "core=snic".
libs=""
for d in lib/*/; do
  d=${d%/}
  name=$(sed -n 's/.*(name \([a-z_0-9]*\)).*/\1/p' "$d/dune" | head -n 1)
  libs="$libs ${d#lib/}=$name"
done

find lib bin bench perfbench examples test -name '*.ml' -o -name '*.mli' \
  | grep -v '/_build/' | sort \
  | awk -v libs="$libs" '
function capital(s) { return toupper(substr(s, 1, 1)) substr(s, 2) }
function modname(path,   b) {
  b = path; sub(/.*\//, "", b); sub(/\.mli?$/, "", b); return capital(b)
}
function owner(path,   k) { k = path; sub(/\.mli?$/, "", k); return k }
function libdir(path,   parts) {
  if (path !~ /^lib\//) return ""
  split(path, parts, "/"); return parts[2]
}
# Strip (* ... *) comments, nesting and spanning lines (state in depth).
function strip(line,   out, i, n, two) {
  out = ""; n = length(line)
  for (i = 1; i <= n; i++) {
    two = substr(line, i, 2)
    if (two == "(*") { depth++; i++; continue }
    if (two == "*)" && depth > 0) { depth--; i++; continue }
    if (depth == 0) out = out substr(line, i, 1)
  }
  return out
}
BEGIN {
  nl = split(libs, lp, " ")
  for (i = 1; i <= nl; i++) {
    split(lp[i], kv, "="); is_lib[capital(kv[2])] = kv[1]
  }
}
{ files[++nf] = $0; if ($0 ~ /^lib\//) has_mod[libdir($0) "/" modname($0)] = 1 }
END {
  for (fi = 1; fi <= nf; fi++) {
    f = files[fi]; depth = 0; n = 0
    while ((getline raw < f) > 0) text[++n] = strip(raw)
    close(f)
    # Pass 1: aliases, opens, includes and (for lib mli) exports.
    delete alias; delete opened; stack = 0
    for (i = 1; i <= n; i++) {
      l = text[i]
      if (match(l, /module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*/)) {
        s = substr(l, RSTART + 7, RLENGTH - 7)
        x = s; sub(/ =.*/, "", x); t = s; sub(/.*[ .]/, "", t)
        alias[x] = t
      }
      if (match(l, /(^|[^A-Za-z0-9_])(open!?|include) [A-Z][A-Za-z0-9_.]*/)) {
        s = substr(l, RSTART, RLENGTH); t = s; sub(/.*[ .]/, "", t)
        opened[t] = 1
        if (s ~ /include/ && f ~ /^lib\/.*\.ml$/) reexport[t] = modname(f)
      }
      if (f ~ /^lib\/.*\.mli$/) {
        if (l ~ /^module [A-Z][A-Za-z0-9_]* .*: *sig/) {
          t = l; sub(/^module /, "", t); sub(/[^A-Za-z0-9_].*/, "", t)
          nest[++stack] = t
        } else if (l ~ /^end/ && stack > 0) stack--
        else if (match(l, /^ *val [a-z_][A-Za-z0-9_'"'"']*/)) {
          v = substr(l, RSTART, RLENGTH); sub(/^ *val /, "", v)
          ne++; ex_file[ne] = f; ex_val[ne] = v
          ex_mod[ne] = stack > 0 ? nest[stack] : modname(f)
          ex_top[ne] = modname(f)
        }
      }
    }
    # Pass 2: references, keyed by "Module.value".
    own = owner(f); d = libdir(f)
    for (i = 1; i <= n; i++) {
      l = text[i]
      while (match(l, "([A-Z][A-Za-z0-9_]*\\.)+[a-z_][A-Za-z0-9_'"'"']*")) {
        p = substr(l, RSTART, RLENGTH); l = substr(l, RSTART + RLENGTH)
        k = split(p, c, ".")
        q = c[k - 1]; if (q in alias) q = alias[q]
        pfx = (k >= 3 && (c[1] in is_lib)) ? is_lib[c[1]] : ""
        if (pfx == "" && d != "" && ((d "/" q) in has_mod)) pfx = d
        ref[q "." c[k]] = ref[q "." c[k]] SUBSEP own "|" pfx
      }
      for (m in opened) {
        l = text[i]
        while (match(l, "[a-z_][A-Za-z0-9_'"'"']*")) {
          w = substr(l, RSTART, RLENGTH); l = substr(l, RSTART + RLENGTH)
          ref[m "." w] = ref[m "." w] SUBSEP own "|"
        }
      }
    }
  }
  bad = 0
  for (e = 1; e <= ne; e++) {
    own = owner(ex_file[e]); d = libdir(ex_file[e])
    keys = ex_mod[e] "." ex_val[e]
    if (ex_mod[e] == ex_top[e] && (ex_top[e] in reexport))
      keys = keys " " reexport[ex_top[e]] "." ex_val[e]
    found = 0
    nk = split(keys, kk, " ")
    for (j = 1; j <= nk && !found; j++) {
      nr = split(ref[kk[j]], rs, SUBSEP)
      for (r = 2; r <= nr; r++) {
        split(rs[r], of, "|")
        if (of[1] != own && (of[2] == "" || of[2] == d)) { found = 1; break }
      }
    }
    if (!found) {
      printf "check_exports FAIL: %s: %s.%s has no reference outside its module\n",
        ex_file[e], ex_mod[e], ex_val[e] > "/dev/stderr"
      bad++
    }
  }
  if (bad > 0) {
    printf "check_exports: %d of %d exported vals are unused outside their module\n", bad, ne > "/dev/stderr"
    exit 1
  }
  printf "all %d exported vals in lib/**/*.mli are used outside their module\n", ne
}'
