#!/usr/bin/env bash
# Byte identity against a base commit, up to the byte moves a change declares.
#
#     bash tests/diff_against_base.sh <base-commit>
#     bash tests/diff_against_base.sh --compare <moves-list> <base-out> <head-out>
#
# Run it from the root of a git checkout of gradgate.
#
# The first form runs, on this tree and on a git worktree of the base commit:
#   - configs/small.ini: run-experiment, then compare-norms;
#   - configs/default.ini: run-experiment, whose detectors are the only ones
#     fitted on sets of 990 and 600 rows;
#   - the benchmark's pipeline config on seed 1, through cli.run_experiment,
#     as perfbench/child.py runs it.
# Then it compares the two output trees, as the second form compares two
# given ones, against tests/expected_byte_moves.txt. That list holds one glob
# a line, relative to the output root (a * also matches a /; blank lines and
# lines that start with # are skipped): the files this change moves on
# purpose. A change that moves no bytes empties the list. The comparison
# fails when
#   - a file exists in one tree only;
#   - a file differs and matches no glob;
#   - a glob matches no differing file, so a stale list fails.
# Both trees run on the same machine, so bitwise reproducibility per machine
# and BLAS build is enough.
set -euo pipefail

compare() {  # compare <moves-list> <base-out> <head-out>
  local globs=() glob path line status=0
  local -A moved=()
  mapfile -t globs < <(grep -v -e '^#' -e '^[[:space:]]*$' "$1" || true)
  while IFS= read -r line; do
    case $line in
      "Files $2/"*" differ")
        path=${line#"Files $2/"}
        path=${path%%" and $3/"*}
        local hit=
        for glob in "${globs[@]}"; do
          if [[ $path == $glob ]]; then
            hit=1
            moved[$glob]=$(( ${moved[$glob]:-0} + 1 ))
          fi
        done
        if [ -z "$hit" ]; then
          echo "moved, but matches no glob of $1: $path"
          status=1
        fi ;;
      *) echo "$line"; status=1 ;;  # "Only in <dir>: <name>"
    esac
  done < <(diff -rq "$2" "$3" || true)
  for glob in "${globs[@]}"; do
    if [ -n "${moved[$glob]:-}" ]; then
      echo "$glob: ${moved[$glob]} files moved, as declared"
    else
      echo "$glob: declared in $1, but no file moved"
      status=1
    fi
  done
  return $status
}

if [ "${1:-}" = --compare ]; then
  compare "$2" "$3" "$4"
  exit
fi

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

compare "$head/tests/expected_byte_moves.txt" "$work/base" "$work/head"
echo "every other artifact is byte-identical to $base's"
