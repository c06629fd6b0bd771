#!/usr/bin/env bash
# Byte identity against a base commit.
#
#     bash tests/diff_against_base.sh <base-commit>
#
# Run it from the root of a git checkout of gradgate.
#
# Runs, on this tree and on a git worktree of the base commit:
#   - configs/small.ini: run-experiment, then compare-norms;
#   - configs/default.ini: run-experiment, whose detectors are the only ones
#     fitted on sets of 990 and 600 rows;
#   - the benchmark's pipeline config on seed 1, through cli.run_experiment,
#     as perfbench/child.py runs it.
# Then it diffs the two output trees with diff -r, which names every file
# that differs, and exits nonzero if any does. Both trees run on the same
# machine, so bitwise reproducibility per machine and BLAS build is enough.
set -euo pipefail

base=$1
head=$(pwd)
work=$(mktemp -d)
trap 'git -C "$head" worktree remove --force "$work/tree"; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/tree" "$base"

run() {  # run <tree> <output dir>
  cd "$1"
  PYTHONPATH=src python3 -m gradgate run-experiment --config configs/small.ini --out "$2/small" > /dev/null
  PYTHONPATH=src python3 -m gradgate compare-norms --config configs/small.ini --out "$2/small" > /dev/null
  PYTHONPATH=src python3 -m gradgate run-experiment --config configs/default.ini --out "$2/default" > /dev/null
  python3 perfbench/child.py fill 1 "$2/pipeline-seed1"
}
(run "$work/tree" "$work/base")
(run "$head" "$work/head")

diff -r "$work/base" "$work/head"
echo "every artifact is byte-identical to $base's"
