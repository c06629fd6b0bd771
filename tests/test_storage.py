import os
import subprocess
import sys

import numpy as np
import pytest

from gradgate import storage

MAGIC = b"GTEST"


def write(path, records, metadata=None):
    storage.write_container(path, MAGIC, metadata or {"source_tag": "probe"}, records)
    return path


class TestHeader:
    def test_header_has_the_metadata_dims_and_payload_offsets(self, tmp_path):
        values, ids = np.arange(12.0).reshape(4, 3), np.arange(4.0)
        path = write(tmp_path / "a.gtest", [("values", values), ("ids", ids)])
        header = storage.read_header(path, MAGIC)
        assert header.metadata == {"source_tag": "probe"}
        assert [(name, dims) for name, dims, _ in header.records] == [("values", (4, 3)),
                                                                       ("ids", (4,))]
        blob = path.read_bytes()
        for (name, dims, offset), arr in zip(header.records, (values, ids)):
            assert blob[offset:offset + arr.nbytes] == arr.tobytes()
        assert header.rows("values") == 4 and header.rows("ids") == 4
        with pytest.raises(storage.RecordError, match="no 'labels' record"):
            header.rows("labels")

    @pytest.mark.parametrize("cut", [1, 8, 40])
    def test_a_cut_payload_is_found_without_reading_it(self, tmp_path, cut):
        path = write(tmp_path / "a.gtest", [("values", np.ones((5, 2)))])
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(storage.TruncatedError, match="file ends inside payload of values"):
            storage.read_header(path, MAGIC)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = write(tmp_path / "a.gtest", [("values", np.ones(3))])
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(storage.TruncatedError, match="1 trailing bytes"):
            storage.read_header(path, MAGIC)

    @pytest.mark.parametrize("read", [storage.read_header, storage.read_container])
    @pytest.mark.parametrize("damage,error", [
        (lambda blob: b"XXXXX" + blob[5:], storage.BadMagicError),
        (lambda blob: blob[:5] + (9).to_bytes(2, "little") + blob[7:], storage.VersionError),
        (lambda blob: blob[:-8], storage.TruncatedError),
        (lambda blob: blob[:9], storage.TruncatedError)])
    def test_every_error_names_the_file(self, tmp_path, read, damage, error):
        path = write(tmp_path / "named-artifact.gtest", [("values", np.ones((2, 2)))])
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(error, match="named-artifact.gtest: "):
            read(path, MAGIC)


class TestRecords:
    def test_rank_zero_record_round_trips_as_rank_zero(self, tmp_path):
        path = write(tmp_path / "a.gtest", [("scalar", np.float64(2.5)), ("row", np.array([2.5]))])
        _, records = storage.read_container(path, MAGIC)
        assert [(name, arr.shape) for name, arr in records] == [("scalar", ()), ("row", (1,))]
        assert records[0][1] == 2.5
        assert storage.read_header(path, MAGIC).records[0][1] == ()
        with pytest.raises(storage.RecordError, match="no 'scalar' record of rank 1"):
            storage.read_header(path, MAGIC).rows("scalar")

    def test_fortran_ordered_array_written_row_major(self, tmp_path):
        arr = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        a = write(tmp_path / "f.gtest", [("values", arr)])
        c = write(tmp_path / "c.gtest", [("values", np.ascontiguousarray(arr))])
        assert a.read_bytes() == c.read_bytes()


def dead_pid() -> int:
    proc = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


class TestStaleTemporaries:
    def test_only_a_dead_writers_temporary_is_removed(self, tmp_path):
        dead = f"set.gdata.{dead_pid()}.tmp"
        kept = [f"set.gdata.{os.getpid()}.tmp", "notes.tmp", "set.gdata.12x.tmp", "set.gdata"]
        for name in [dead, *kept]:
            (tmp_path / name).write_bytes(b"partial")
        storage.remove_stale_temporaries(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept)
