"""Run one gradgate command and kill it right before its k-th rename.

    python3 tests/crash_at_rename.py K <gradgate arguments...>

Every artifact reaches its final name through one ``os.replace``, so
replacing ``os.replace`` with ``os._exit(137)`` at its k-th call leaves the
output directory as a SIGKILL at that moment would: the k-th artifact's
temporary file complete, but not renamed. Exits 137 at the k-th rename, or
with the command's own status when it makes fewer than k renames.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gradgate import cli  # noqa: E402


def main(argv) -> int:
    k, renames, replace = int(argv[0]), [], os.replace

    def replace_or_die(src, dst):
        renames.append(dst)
        if len(renames) == k:
            os._exit(137)
        replace(src, dst)

    os.replace = replace_or_die
    return cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
