"""Round-trip and error tests for pmf and sample file formats."""

import numpy as np
import pytest

from idtest.distributions import uniform_pmf, zipf_pmf
from idtest.errors import BadParams, SampleExhausted
from idtest.io import read_pmf, read_samples, write_pmf, write_samples


class TestPmfText:
    def test_round_trip_bit_exact(self, tmp_path):
        p = zipf_pmf(97)
        path = tmp_path / "a.pmf"
        write_pmf(path, p)
        back = read_pmf(path)
        assert np.array_equal(p.probs, back.probs)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "b.pmf"
        path.write_text("# header\n0.5\n\n0.25  # trailing\n0.25\n")
        assert np.array_equal(read_pmf(path).probs, [0.5, 0.25, 0.25])

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.pmf"
        path.write_text("0.5\n0.25\nnot-a-number\n0.25\n")
        with pytest.raises(BadParams, match="line 3"):
            read_pmf(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.pmf"
        path.write_text("# nothing\n")
        with pytest.raises(BadParams):
            read_pmf(path)


class TestPmfBinary:
    def test_round_trip(self, tmp_path):
        p = zipf_pmf(1000)
        path = tmp_path / "a.pmfbin"
        write_pmf(path, p, binary=True)
        back = read_pmf(path)  # magic auto-detected
        assert np.array_equal(p.probs, back.probs)
        assert not back.probs.flags.writeable

    def test_truncated_detected(self, tmp_path):
        p = uniform_pmf(8)
        path = tmp_path / "b.pmfbin"
        write_pmf(path, p, binary=True)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(BadParams):
            read_pmf(path)

    @pytest.mark.parametrize(
        "cut,match",
        [(8 + 3, "header truncated"), (-3, "not a multiple of 8")],
        ids=["short-header", "partial-value"],
    )
    def test_truncated_bytes_are_bad_params(self, tmp_path, cut, match):
        # cut 8 + 3 keeps the magic and 3 bytes of n; -3 splits the last value
        path = tmp_path / "c.pmfbin"
        write_pmf(path, uniform_pmf(8), binary=True)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(BadParams, match=match):
            read_pmf(path)


class TestSamples:
    def test_round_trip_one_indexed(self, tmp_path):
        path = tmp_path / "x.samples"
        write_samples(path, np.array([0, 4, 2]))
        assert path.read_text().splitlines() == ["1", "5", "3"]
        stream = read_samples(path, n=6)
        assert np.array_equal(stream.draw_many(3), [0, 4, 2])
        with pytest.raises(SampleExhausted):
            stream.draw_many(1)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "y.samples"
        path.write_text("1\n7\n")
        with pytest.raises(BadParams, match="line 2"):
            read_samples(path, n=6)

    def test_non_integer_line(self, tmp_path):
        path = tmp_path / "z.samples"
        path.write_text("1\nbanana\n")
        with pytest.raises(BadParams, match="line 2"):
            read_samples(path, n=6)
