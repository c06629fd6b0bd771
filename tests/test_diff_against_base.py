"""The comparison of ``tests/diff_against_base.sh --compare``: two output
trees may differ only in the files a list of globs declares, and every glob
must match a differing file."""

import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "diff_against_base.sh"


def write_tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def compare(tmp_path, globs, base_files, head_files):
    moves = tmp_path / "moves.txt"
    moves.write_text("# a comment\n\n" + "".join(g + "\n" for g in globs))
    base = write_tree(tmp_path / "base", base_files)
    head = write_tree(tmp_path / "head", head_files)
    return subprocess.run(["bash", str(SCRIPT), "--compare", str(moves), str(base), str(head)],
                          capture_output=True, text=True)


BASE = {"small/scores-fgsm-gradient-d.gscore": b"a", "small/report-d.kv": b"r",
        "default/scores-cw-gradient-d.gscore": b"b"}


def test_trees_that_differ_only_as_declared_pass(tmp_path):
    head = {**BASE, "small/scores-fgsm-gradient-d.gscore": b"A",
            "default/scores-cw-gradient-d.gscore": b"B"}
    result = compare(tmp_path, ["*/scores-*-gradient-*.gscore"], BASE, head)
    assert result.returncode == 0, result.stdout
    assert result.stdout == "*/scores-*-gradient-*.gscore: 2 files moved, as declared\n"


def test_identical_trees_pass_with_an_empty_list(tmp_path):
    result = compare(tmp_path, [], BASE, BASE)
    assert (result.returncode, result.stdout) == (0, "")


@pytest.mark.parametrize("globs,head,message", [
    ([], {**BASE, "small/report-d.kv": b"R"}, "moved, but matches no glob"),
    (["*/scores-*-gradient-*.gscore"], {**BASE, "small/report-d.kv": b"R"},
     "moved, but matches no glob"),
    (["*/scores-*-gradient-*.gscore", "*/scores-*-activation-*.gscore"],
     {**BASE, "small/scores-fgsm-gradient-d.gscore": b"A"},
     "*/scores-*-activation-*.gscore: declared"),
    (["*/scores-*-gradient-*.gscore"], BASE, "but no file moved"),
    (["*/report-*.kv"], {**BASE, "small/report-d.kv": b"R", "small/extra.txt": b""},
     "Only in"),
    ([], {k: v for k, v in BASE.items() if k != "small/report-d.kv"}, "Only in"),
])
def test_undeclared_move_stale_glob_or_one_sided_file_fails(tmp_path, globs, head, message):
    result = compare(tmp_path, globs, BASE, head)
    assert result.returncode == 1
    assert message in result.stdout
