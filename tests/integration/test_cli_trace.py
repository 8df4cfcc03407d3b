"""CLI round-trips for ``pomtlb trace pack`` / ``trace unpack``."""

import gzip

import pytest

from repro import cli
from repro.workloads.packed import load_packed, save_packed
from repro.workloads.trace import CoreStream, MemoryReference, save_stream


def make_stream(core=0, n=12):
    refs = [MemoryReference(5 + i * 7, 0x2000 + 0x1000 * i, i % 3 == 0)
            for i in range(n)]
    return CoreStream(core=core, vm_id=1, asid=4, references=refs)


def read_text(path):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as handle:
        return handle.read()


class TestPackUnpackRoundTrip:
    def test_text_to_packed_to_text_is_byte_identical(self, tmp_path,
                                                      capsys):
        text = str(tmp_path / "trace.txt")
        packed = str(tmp_path / "trace.pwl")
        back = str(tmp_path / "back.txt")
        save_stream(make_stream(), text)

        assert cli.main(["trace", "pack", text, packed]) == 0
        assert "packed 12 record(s)" in capsys.readouterr().out
        assert cli.main(["trace", "unpack", packed, back]) == 0
        assert "unpacked 12 record(s)" in capsys.readouterr().out
        assert read_text(back) == read_text(text)

    def test_gzip_on_both_sides(self, tmp_path):
        text = str(tmp_path / "trace.txt.gz")
        packed = str(tmp_path / "trace.pwl.gz")
        back = str(tmp_path / "back.txt.gz")
        save_stream(make_stream(n=40), text)

        assert cli.main(["trace", "pack", text, packed]) == 0
        with open(packed, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"
        assert cli.main(["trace", "unpack", packed, back]) == 0
        assert read_text(back) == read_text(text)

    def test_empty_stream_round_trips(self, tmp_path):
        text = str(tmp_path / "empty.txt")
        packed = str(tmp_path / "empty.pwl")
        back = str(tmp_path / "back.txt")
        save_stream(CoreStream(core=2, vm_id=0, asid=9), text)

        assert cli.main(["trace", "pack", text, packed]) == 0
        assert cli.main(["trace", "unpack", packed, back]) == 0
        assert read_text(back) == read_text(text)
        assert "core=2 vm=0 asid=9" in read_text(back)

    def test_packed_output_is_validated(self, tmp_path):
        text = str(tmp_path / "trace.txt")
        packed = str(tmp_path / "trace.pwl")
        save_stream(make_stream(), text)
        cli.main(["trace", "pack", text, packed])
        container = load_packed(packed)
        assert container.validated
        assert container.streams[0].validated


class TestErrors:
    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = cli.main(["trace", "pack", str(tmp_path / "no.txt"),
                         str(tmp_path / "out.pwl")])
        assert code == 2
        assert "cannot pack trace" in capsys.readouterr().err

    def test_malformed_text_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("#pomtlb-trace core=0 vm=0 asid=1\n10 zz R\n")
        code = cli.main(["trace", "pack", str(bad),
                         str(tmp_path / "out.pwl")])
        assert code == 2
        assert "trace error" in capsys.readouterr().err

    def test_non_monotonic_text_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("#pomtlb-trace core=0 vm=0 asid=1\n"
                       "10 4096 R\n5 8192 W\n")
        assert cli.main(["trace", "pack", str(bad),
                         str(tmp_path / "out.pwl")]) == 2
        capsys.readouterr()

    def test_out_of_range_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("#pomtlb-trace core=-3 vm=0 asid=1\n10 4096 R\n")
        out = tmp_path / "out.pwl"
        assert cli.main(["trace", "pack", str(bad), str(out)]) == 2
        assert "stream core -3" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_packed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "damaged.pwl"
        path.write_bytes(b"definitely not a packed trace")
        code = cli.main(["trace", "unpack", str(path),
                         str(tmp_path / "out.txt")])
        assert code == 2
        assert "trace error" in capsys.readouterr().err

    def test_multi_stream_workload_refused(self, tmp_path, capsys):
        path = str(tmp_path / "workload.pwl")
        save_packed(path, [make_stream(core=0), make_stream(core=1)])
        code = cli.main(["trace", "unpack", path,
                         str(tmp_path / "out.txt")])
        assert code == 2
        assert "2 streams" in capsys.readouterr().err

    def test_trace_without_action_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["trace"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestListing:
    def test_trace_tools_listed(self, capsys):
        assert cli.main(["list"]) == 0
        assert "trace pack" in capsys.readouterr().out
