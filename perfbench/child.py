"""One set-up step of a workload, run in a fresh interpreter.

    python3 perfbench/child.py {startup,fill,train} <seed> <out_dir>

- ``startup`` imports gradgate, loads and validates the pipeline config and
  prints its digest: what every ``run_experiment`` process does before its
  first artifact.
- ``fill`` makes one ``cli.run_experiment`` call on the pipeline config into
  ``out_dir``, so that a later call there hits every cached artifact.
- ``train`` trains the score-stream classifier into ``out_dir``
  (``cli.ensure_classifier``), so that the measured process only loads it.

Set-up runs here, not in the measured process, so that process's peak
resident set covers the measured units only. The caller pins the BLAS
threads in the environment this process inherits.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gradgate import cli  # noqa: E402

import workloads  # noqa: E402


def main(argv) -> int:
    step, seed, out = argv[0], int(argv[1]), Path(argv[2])
    if step == "startup":
        print(workloads.pipeline_config(ROOT, out, seed).digest())
    elif step == "fill":
        cli.run_experiment(workloads.pipeline_config(ROOT, out, seed), out)
    elif step == "train":
        cli.ensure_classifier(workloads.stream_config(ROOT, out, seed), out)
    else:
        print(f"unknown step {step!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
