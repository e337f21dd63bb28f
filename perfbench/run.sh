#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through to
# main.exe (see main.ml).  Run from the repository root:
#   bash perfbench/run.sh --workload serve-distinct --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from a checkout of the repository (no dune-project or lib/ here)" >&2
  exit 1
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The shared dune cache lives outside the checkout; keep the build inside it.
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
