#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#   bash lhbench/run.sh --workload bi|la|ingest --seed N --seconds S --trace 0|1
#   bash lhbench/run.sh --self-test
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f lhbench/dune ]]; then
  echo "lhbench: run from the repository root (dune-project, lib/ and lhbench/ are needed)" >&2
  exit 1
fi

# Engines run at their default configuration: no LH_* knob applies.
while IFS= read -r name; do unset "$name"; done < <(compgen -e | grep '^LH_' || true)

# The build stays inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . ./lhbench/lhbench.exe >&2
exec ./_build/default/lhbench/lhbench.exe "$@"
