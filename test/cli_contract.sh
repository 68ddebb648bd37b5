#!/bin/sh
# CLI contract: every surfaced subcommand must
#   - exit 0 on --help,
#   - exit non-zero AND print usage on an unknown flag,
# and the top-level command must reject unknown subcommands the same
# way. cmdliner's conventional error status is 124; we require it
# exactly so accidental uncaught exceptions (status 2/125) fail here.
#
# The bench binary follows the same convention for section selection:
# an unknown --only section is a 124 + usage error, not a silent no-op.
#
# A scenario whose gate fails exits 1, and bench --check compares the
# committed baseline exactly.
#
# Usage: cli_contract.sh /path/to/snic_cli.exe [/path/to/bench.exe /path/to/BENCH_qos.baseline.json]
set -e

cli="$1"
bench="$2"
qos_baseline="$3"
[ -x "$cli" ] || { echo "cli_contract: no executable at '$cli'" >&2; exit 2; }

fail() { echo "cli_contract FAIL: $*" >&2; exit 1; }

check_help() {
  # $@ = subcommand path
  "$cli" "$@" --help > /dev/null 2>&1 || fail "'$* --help' exited non-zero"
}

check_bad_flag() {
  set +e
  err=$("$cli" "$@" --definitely-not-a-flag 2>&1 > /dev/null)
  status=$?
  set -e
  [ "$status" -eq 124 ] || fail "'$* --definitely-not-a-flag' exited $status, want 124"
  case "$err" in
    *Usage:*) : ;;
    *) fail "'$* --definitely-not-a-flag' printed no usage line" ;;
  esac
}

for sub in fleet chaos trace datapath oracle vf qos ddos fabric attacks; do
  check_help "$sub"
  check_bad_flag "$sub"
done

# --domains / --shards take a positive integer; zero and non-numeric
# values are rejected at parse time (cmdliner conv), so 124 + usage —
# not a crash and not our status-2 validation path.
check_bad_domains() {
  # $1 = subcommand, $2 = flag value
  set +e
  err=$("$cli" "$1" --domains "$2" 2>&1 > /dev/null)
  status=$?
  set -e
  [ "$status" -eq 124 ] || fail "'$1 --domains $2' exited $status, want 124"
  case "$err" in
    *Usage:*) : ;;
    *) fail "'$1 --domains $2' printed no usage line" ;;
  esac
}

for sub in fleet chaos oracle; do
  check_bad_domains "$sub" 0
  check_bad_domains "$sub" abc
  check_bad_domains "$sub" -3
done

check_help
check_bad_flag

# Unknown subcommand: non-zero + usage.
set +e
err=$("$cli" no-such-subcommand 2>&1 > /dev/null)
status=$?
set -e
[ "$status" -eq 124 ] || fail "unknown subcommand exited $status, want 124"
case "$err" in
  *Usage:*) : ;;
  *) fail "unknown subcommand printed no usage line" ;;
esac

# oracle-specific argument validation (our own checks, not cmdliner's):
# missing --mode and out-of-range --slots are status-2 errors.
set +e
"$cli" oracle > /dev/null 2>&1
[ $? -eq 2 ] || fail "'oracle' without --mode should exit 2"
"$cli" oracle --mode snic --slots 99 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'oracle --slots 99' should exit 2"

# vf-specific validation: zero NICs, zero VFs and an out-of-range VF
# count are status-2 errors from our checks, not cmdliner's.
"$cli" vf --nics 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'vf --nics 0' should exit 2"
"$cli" vf --vfs 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'vf --vfs 0' should exit 2"
"$cli" vf --vfs 5000 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'vf --vfs 5000' should exit 2"

# qos-specific validation: a scenario needs an aggressor plus at least
# one victim, and the load/SLO knobs must be positive.
"$cli" qos --tenants 1 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'qos --tenants 1' should exit 2"
"$cli" qos --rounds 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'qos --rounds 0' should exit 2"
"$cli" qos --slo 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'qos --slo 0' should exit 2"

# ddos-specific validation: at least one benign flow, a positive attack
# factor and a sane whitelist size are status-2 errors from our checks.
"$cli" ddos --flows 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'ddos --flows 0' should exit 2"
"$cli" ddos --factor 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'ddos --factor 0' should exit 2"
"$cli" ddos --log2-buckets 99 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'ddos --log2-buckets 99' should exit 2"

# fabric-specific validation: the chain needs three NICs, the receive
# window must fit the RFC 4303-style bitmap, and --metrics cannot
# combine with sharding (one sink per run).
"$cli" fabric --nics 2 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'fabric --nics 2' should exit 2"
"$cli" fabric --window 63 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'fabric --window 63' should exit 2"
"$cli" fabric --flows 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'fabric --flows 0' should exit 2"
"$cli" fabric --min-goodput 1.5 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'fabric --min-goodput 1.5' should exit 2"
"$cli" fabric --shards 2 --metrics /tmp/fab.prom > /dev/null 2>&1
[ $? -eq 2 ] || fail "'fabric --shards 2 --metrics' should exit 2"

# A failed scenario gate is exit 1 (not 2: the arguments were valid).
"$cli" vf --nics 1 --vfs 8 --cycles 2 --min-jain 1.0 > /dev/null 2>&1
[ $? -eq 1 ] || fail "'vf --min-jain 1.0' on an unconverged run should exit 1"
"$cli" qos --max-victim-p99 1 > /dev/null 2>&1
[ $? -eq 1 ] || fail "'qos --max-victim-p99 1' should exit 1"
set -e

# An unknown NF short name anywhere a command takes one is a cmdliner
# conv error (124 + usage) that lists the valid names, driven by
# Nf.Registry.find's descriptive Invalid_argument.
set +e
err=$("$cli" ipc --nf NOPE 2>&1 > /dev/null)
status=$?
set -e
[ "$status" -eq 124 ] || fail "'ipc --nf NOPE' exited $status, want 124"
case "$err" in
  *Usage:*) : ;;
  *) fail "'ipc --nf NOPE' printed no usage line" ;;
esac
# cmdliner re-wraps the message, so match the parts, not the phrase.
case "$err" in
  *"valid short"*SYNP*) : ;;
  *) fail "'ipc --nf NOPE' error does not list the valid NF short names" ;;
esac

# bench --only: unknown sections are 124 + usage, known sections are
# listed in the message (kept in sync with bench/main.ml's dispatch).
if [ -n "$bench" ]; then
  [ -x "$bench" ] || fail "no bench executable at '$bench'"
  set +e
  err=$("$bench" --only no-such-section 2>&1 > /dev/null)
  status=$?
  set -e
  [ "$status" -eq 124 ] || fail "'bench --only no-such-section' exited $status, want 124"
  case "$err" in
    *Usage:*) : ;;
    *) fail "'bench --only no-such-section' printed no usage line" ;;
  esac
  case "$err" in
    *qos*) : ;;
    *) fail "'bench --only' usage does not list the qos section" ;;
  esac
  case "$err" in
    *par*) : ;;
    *) fail "'bench --only' usage does not list the par section" ;;
  esac
  case "$err" in
    *ddos*) : ;;
    *) fail "'bench --only' usage does not list the ddos section" ;;
  esac
  case "$err" in
    *fabric*) : ;;
    *) fail "'bench --only' usage does not list the fabric section" ;;
  esac

  # bench --domains follows the same convention: zero or non-numeric
  # values are 124 + usage before any section runs.
  for v in 0 abc; do
    set +e
    err=$("$bench" --only par --domains "$v" 2>&1 > /dev/null)
    status=$?
    set -e
    [ "$status" -eq 124 ] || fail "'bench --domains $v' exited $status, want 124"
    case "$err" in
      *Usage:*) : ;;
      *) fail "'bench --domains $v' printed no usage line" ;;
    esac
  done

  # --check compares every baseline key exactly: a copy of the qos
  # baseline with one value moved in its sixth decimal must fail and
  # name the key.
  if [ -n "$qos_baseline" ]; then
    off=$(mktemp)
    sed 's/"qos.share_min": 0.975000/"qos.share_min": 0.975001/' "$qos_baseline" > "$off"
    grep -q '"qos.share_min": 0.975001' "$off" || fail "could not perturb qos.share_min in $qos_baseline"
    set +e
    out=$("$bench" --only qos --check "$off" 2>&1)
    status=$?
    set -e
    rm -f "$off"
    [ "$status" -eq 1 ] || fail "'bench --only qos --check' on a perturbed baseline exited $status, want 1"
    case "$out" in
      *"qos.share_min: 0.975000 vs baseline 0.975001"*) : ;;
      *) fail "'bench --only qos --check' did not name the perturbed key" ;;
    esac
  fi
fi

echo "cli contract holds (fleet chaos trace datapath oracle vf qos ddos fabric attacks; --domains; --nf; bench --only)"
