#!/usr/bin/env bash
# Builds mqdp_serve and the benchmark program in the release profile from
# the checkout this script sits in, then runs it:
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 10 --trace 0
#
# Build output goes to .bench_build/ at the checkout root; run records and
# working state go to perfbench/out/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build=.bench_build
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# No shared build cache: the benchmark reads and writes only its checkout.
export DUNE_CACHE=disabled
if ! dune build --root . --profile release --build-dir "$build" \
    ./bin/mqdp_serve.exe ./perfbench/perfbench.exe 1>&2; then
  echo "perfbench: build failed; the benchmark needs the full mqdp source tree" >&2
  exit 2
fi
exec "$build/default/perfbench/perfbench.exe" \
  --serve "$build/default/bin/mqdp_serve.exe" --out perfbench/out "$@"
