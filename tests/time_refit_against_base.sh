#!/usr/bin/env bash
# Default-config detector refit time, against a base commit.
#
#     bash tests/time_refit_against_base.sh <base-commit> [rounds]
#
# Run it from the root of a git checkout of gradgate. On this tree and on a
# git worktree of the base commit it runs configs/default.ini once cold. Then
# it runs <rounds> (default 6) rounds that alternate which tree goes first;
# each run deletes that tree's scores-*.gscore files and times
# run-experiment, which then refits the 18 detectors, reruns the MSP forwards
# and reads every other artifact from cache. BLAS runs on one thread. It prints each time and each
# tree's median, then diffs the two output trees with diff -r and exits
# nonzero if any file differs. CI does not run it: shared runners are too
# noisy to time on.
set -euo pipefail

base=$1
rounds=${2:-6}
head=$(pwd)
work=$(mktemp -d)
trap 'git -C "$head" worktree remove --force "$work/tree"; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/tree" "$base"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

python3 - "$rounds" "$work/tree" "$work/base" "$head" "$work/head" <<'EOF'
import glob
import os
import statistics
import subprocess
import sys
import time

rounds = int(sys.argv[1])
trees = {"base": sys.argv[2:4], "head": sys.argv[4:6]}


def run_experiment(tree, out):
    subprocess.run([sys.executable, "-m", "gradgate", "run-experiment",
                    "--config", "configs/default.ini", "--out", out],
                   cwd=tree, env={**os.environ, "PYTHONPATH": "src"}, check=True,
                   stdout=subprocess.DEVNULL)


for side, (tree, out) in trees.items():  # cold: train, attack and extract once
    run_experiment(tree, out)
times = {side: [] for side in trees}
for r in range(rounds):
    for side in ("base", "head") if r % 2 == 0 else ("head", "base"):
        tree, out = trees[side]
        for path in glob.glob(os.path.join(out, "scores-*.gscore")):
            os.remove(path)
        start = time.perf_counter()
        run_experiment(tree, out)
        times[side].append(time.perf_counter() - start)
        print(f"round {r + 1} {side}: {times[side][-1]:.3f} s", flush=True)
for side, ts in times.items():
    print(f"{side} median: {statistics.median(ts):.3f} s over {len(ts)} refits")
faster = sum(h < b for b, h in zip(times["base"], times["head"]))
print(f"head faster in {faster} of {rounds} rounds")
EOF

diff -r "$work/base" "$work/head"
echo "every artifact is byte-identical to $base's"
