#!/bin/sh
# Builds the benchmark from source, then runs it with the arguments given
# (see perfbench/README.md), e.g.
#
#   sh perfbench/run.sh --workload table1 --seed 1 --seconds 12 --trace 0
#
# Run from the repository root.  Everything the build and the run write
# stays under the root: dune's _build/, and .perfbench/ for scratch files
# (removed on exit).  A failed build exits non-zero without a result line.

scratch=.perfbench
mkdir -p "$scratch/tmp" || exit 2
TMPDIR="$(pwd)/$scratch/tmp"
export TMPDIR
DUNE_CACHE=disabled
export DUNE_CACHE

if command -v dune >/dev/null 2>&1; then
  dune build --root . ./perfbench/bench.exe 1>&2
else
  opam exec -- dune build --root . ./perfbench/bench.exe 1>&2
fi
status=$?
if [ "$status" -eq 0 ]; then
  ./_build/default/perfbench/bench.exe "$@"
  status=$?
fi
rm -rf "$scratch/tmp"
rmdir "$scratch" 2>/dev/null
exit "$status"
