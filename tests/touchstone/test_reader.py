"""Unit tests for the Touchstone parser."""

import numpy as np
import pytest

from repro.synth import random_macromodel
from repro.touchstone.reader import (
    _UNIT_SCALE,
    _comment_free_lines,
    _parse_option_line,
    parse_touchstone,
    read_touchstone,
)
from repro.touchstone.writer import format_touchstone


SIMPLE_1PORT = """! demo file
# HZ S RI R 50
1e6 0.5 -0.1
2e6 0.4 -0.2
"""


class TestOptionLine:
    def test_defaults(self):
        # Spec defaults: GHZ S MA R 50.
        text = "# \n1.0 0.5 0.0\n"
        data = parse_touchstone(text, num_ports=1)
        assert data.freqs_hz[0] == pytest.approx(1e9)
        assert data.z0 == 50.0
        assert data.parameter == "S"

    def test_explicit_options(self):
        data = parse_touchstone(SIMPLE_1PORT, num_ports=1)
        assert data.freqs_hz[0] == pytest.approx(1e6)
        assert data.matrices[0, 0, 0] == pytest.approx(0.5 - 0.1j)

    def test_units(self):
        for unit, scale in [("HZ", 1.0), ("KHZ", 1e3), ("MHZ", 1e6), ("GHZ", 1e9)]:
            text = f"# {unit} S RI R 50\n2.0 0.1 0.0\n"
            data = parse_touchstone(text, num_ports=1)
            assert data.freqs_hz[0] == pytest.approx(2.0 * scale)

    def test_resistance(self):
        text = "# HZ S RI R 75\n1.0 0.1 0.0\n"
        assert parse_touchstone(text, num_ports=1).z0 == 75.0

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown token"):
            parse_touchstone("# HZ S RI Q 50\n1.0 0.1 0.0\n", num_ports=1)

    def test_v2_keywords_rejected(self):
        with pytest.raises(ValueError, match="v2"):
            parse_touchstone("[Version] 2.0\n# HZ S RI R 50\n", num_ports=1)


class TestFormats:
    def test_ma(self):
        text = "# HZ S MA R 50\n1.0 2.0 90.0\n"
        data = parse_touchstone(text, num_ports=1)
        np.testing.assert_allclose(data.matrices[0, 0, 0], 2.0j, atol=1e-12)

    def test_db(self):
        text = "# HZ S DB R 50\n1.0 20.0 0.0\n"
        data = parse_touchstone(text, num_ports=1)
        np.testing.assert_allclose(data.matrices[0, 0, 0], 10.0, atol=1e-12)


class TestLayout:
    def test_two_port_column_major_quirk(self):
        # Record order is S11 S21 S12 S22 for 2-ports.
        text = (
            "# HZ S RI R 50\n"
            "1.0  11 0  21 0  12 0  22 0\n"
        )
        data = parse_touchstone(text, num_ports=2)
        np.testing.assert_allclose(
            data.matrices[0].real, [[11.0, 12.0], [21.0, 22.0]]
        )

    def test_three_port_row_major(self):
        values = " ".join(f"{i + 1} 0" for i in range(9))
        text = f"# HZ S RI R 50\n1.0 {values}\n"
        data = parse_touchstone(text, num_ports=3)
        np.testing.assert_allclose(
            data.matrices[0].real,
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        )

    def test_wrapped_records(self):
        text = (
            "# HZ S RI R 50\n"
            "1.0 1 0 2 0 3 0 4 0\n"
            "    5 0 6 0 7 0 8 0\n"
            "    9 0\n"
        )
        data = parse_touchstone(text, num_ports=3)
        assert data.matrices.shape == (1, 3, 3)
        assert data.matrices[0, 2, 2] == 9.0

    def test_comments_stripped(self):
        text = "! header\n# HZ S RI R 50\n1.0 0.1 0.0 ! trailing\n"
        data = parse_touchstone(text, num_ports=1)
        assert data.matrices.shape == (1, 1, 1)

    def test_port_inference(self):
        values = " ".join("0.1 0.0" for _ in range(4))
        text = f"# HZ S RI R 50\n1.0 {values}\n2.0 {values}\n"
        data = parse_touchstone(text)
        assert data.num_ports == 2

    def test_inconsistent_length_rejected(self):
        text = "# HZ S RI R 50\n1.0 0.1 0.0 0.3\n"
        with pytest.raises(ValueError):
            parse_touchstone(text, num_ports=1)

    def test_decreasing_frequency_rejected(self):
        text = "# HZ S RI R 50\n2.0 0.1 0.0\n1.0 0.1 0.0\n"
        with pytest.raises(ValueError, match="increasing"):
            parse_touchstone(text, num_ports=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no data"):
            parse_touchstone("! nothing here\n# HZ S RI R 50\n", num_ports=1)

    def test_non_numeric_token_rejected(self):
        text = "# HZ S RI R 50\n1.0 0.1 zero\n"
        with pytest.raises(ValueError, match="could not convert"):
            parse_touchstone(text, num_ports=1)


class TestReadFile:
    def test_suffix_port_detection(self, tmp_path):
        path = tmp_path / "demo.s1p"
        path.write_text(SIMPLE_1PORT)
        data = read_touchstone(path)
        assert data.num_ports == 1
        assert data.freqs_rad[0] == pytest.approx(2 * np.pi * 1e6)


def _reference_parse(text, num_ports):
    """The per-record parse the block conversion must match exactly: one
    ``float()`` per token, then one conversion and reshape per record."""
    unit, _, fmt, _ = _parse_option_line("#")
    numbers = []
    for line in _comment_free_lines(text.splitlines()):
        if line.startswith("#"):
            unit, _, fmt, _ = _parse_option_line(line)
            continue
        numbers.extend(float(tok) for tok in line.split())
    records = np.asarray(numbers).reshape(-1, 1 + 2 * num_ports * num_ports)
    matrices = np.empty((len(records), num_ports, num_ports), dtype=complex)
    for i, record in enumerate(records):
        a, b = record[1::2], record[2::2]
        if fmt == "RI":
            entries = a + 1j * b
        elif fmt == "MA":
            entries = a * np.exp(1j * np.deg2rad(b))
        else:
            entries = 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))
        if num_ports == 2:
            matrices[i] = entries.reshape(2, 2).T
        else:
            matrices[i] = entries.reshape(num_ports, num_ports)
    return records[:, 0] * _UNIT_SCALE[unit], matrices


def _device_text(ports, seed, fmt, samples=40):
    model = random_macromodel(6, ports, seed=seed, sigma_target=1.05)
    freqs = np.linspace(0.05, 14.0, samples)
    return format_touchstone(
        freqs / (2.0 * np.pi),
        model.frequency_response(freqs),
        fmt=fmt,
        unit="GHZ",
        comment="generated\nfor the block-parse test",
    )


class TestBlockParseMatchesPerRecord:
    """One conversion over the whole record block equals the per-record
    parse bit for bit: frequencies and every matrix entry ``==``."""

    @staticmethod
    def _assert_same(text, num_ports):
        data = parse_touchstone(text, num_ports=num_ports)
        freqs, matrices = _reference_parse(text, num_ports)
        assert data.matrices.flags.c_contiguous
        assert data.matrices.shape == matrices.shape
        assert np.array_equal(data.freqs_hz, freqs)
        assert np.array_equal(data.matrices, matrices)

    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    @pytest.mark.parametrize("ports", [1, 2, 3, 4])
    def test_formats_and_port_counts(self, fmt, ports):
        self._assert_same(_device_text(ports, 60 + ports, fmt), ports)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_service_sized_devices(self, seed):
        model = random_macromodel(12, 4, seed=seed, sigma_target=1.1)
        freqs = np.linspace(0.05, 14.0, 300)
        text = format_touchstone(freqs / (2.0 * np.pi), model.frequency_response(freqs))
        self._assert_same(text, 4)

    def test_wrapped_records_and_trailing_comments(self):
        text = (
            "! header\n"
            "# MHZ S MA R 50  ! options\n"
            "1.0  0.9 -10  0.1 45  0.2 -45  0.3 90 ! first line\n"
            "     0.8 -20  0.1 30  0.2 -30  0.3 80\n"
            "     0.7 -30 ! wrapped tail\n"
            "! between records\n"
            "2.5  0.9 -11  0.1 46  0.2 -46  0.3 91\n"
            "     0.8 -21  0.1 31  0.2 -31  0.3 81  0.7 -31\n"
        )
        self._assert_same(text, 3)
