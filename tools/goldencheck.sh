#!/bin/sh
# Golden bench-report byte-compare (docs/OBSERVABILITY.md,
# .github/workflows/ci.yml "perf-smoke", ctest -R goldencheck).
#
# Regenerates every committed BENCH_<name>[_<machine>].json golden
# (except the wall-clock simspeed trajectory, which tools/perfcheck.sh
# gates with its own tolerance) and fails on any byte difference. The
# sweeps are pure simulation, so a diff means behaviour changed —
# regenerate the golden deliberately and review the diff:
#
#   build/bench/<name> --seed <seed> [--machine <m>] \
#       --json BENCH_<name>[_<m>].json
#
# Each entry below is <name>:<seed>[:<machine>]. The two ib entries pin
# the verbs recovery paths across versions — QP error-fencing and
# reconnect, RNR-NAK retry and the rdma NAK fallback under fault_sweep
# and chaos_sweep — which faultcheck and chaoscheck only replay within
# one build.
#
# atomics_sweep and kvstore_sweep run with the fabric disabled
# (infinite buffers), so this doubles as the gate that the
# congestion-aware fabric stays byte-invisible when off
# (docs/FABRIC.md); congestion_sweep pins the finite-buffer incast and
# routing-policy tables themselves.
#
# Usage: tools/goldencheck.sh <build-dir>
set -eu

build=${1:?usage: goldencheck.sh <build-dir>}

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

status=0
for entry in atomics_sweep:1 kvstore_sweep:1 congestion_sweep:1 \
             fault_sweep:42:ib chaos_sweep:42:ib; do
  name=${entry%%:*}
  rest=${entry#*:}
  seed=${rest%%:*}
  machine=
  golden=$name
  if [ "$rest" != "$seed" ]; then
    machine=${rest#*:}
    golden=${name}_$machine
  fi
  committed="$repo_root/BENCH_$golden.json"
  if [ ! -f "$committed" ]; then
    echo "goldencheck: missing $committed" >&2
    status=1
    continue
  fi
  if [ -n "$machine" ]; then
    "$build/bench/$name" --seed "$seed" --machine "$machine" \
        --json "$fresh" > /dev/null
  else
    "$build/bench/$name" --seed "$seed" --json "$fresh" > /dev/null
  fi
  if cmp -s "$committed" "$fresh"; then
    echo "goldencheck: $golden matches the committed golden"
  else
    echo "goldencheck: $golden drifted from the committed golden:" >&2
    diff "$committed" "$fresh" >&2 || true
    status=1
  fi
done
exit $status
