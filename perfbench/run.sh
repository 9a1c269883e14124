#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Needs the OCaml toolchain with dune and the libraries named in
# perfbench/dune and perfbench/src/dune.  Build output goes to _build/ and
# run output to .perfbench/, both inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root is not a source checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
