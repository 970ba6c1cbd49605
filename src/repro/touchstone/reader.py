"""Touchstone v1 parser.

Supported subset (the universally used core of the format):

* option line ``# <unit> <parameter> <format> R <resistance>`` with
  defaults ``GHZ S MA R 50`` per the specification;
* frequency units HZ / KHZ / MHZ / GHZ;
* parameter types S, Y, Z (stored as-is; the type is reported);
* number formats RI (real/imag), MA (magnitude/angle-degrees),
  DB (dB-magnitude/angle-degrees);
* comment lines (``!``) and trailing comments;
* records wrapped over multiple lines (the spec allows at most four
  complex values per line, so any ``p > 2`` file wraps);
* the 2-port ordering quirk: for ``p == 2`` the four values of a record
  are ``S11 S21 S12 S22`` (column-major), while all other sizes are
  row-major.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "TouchstoneData",
    "parse_touchstone",
    "read_parameter",
    "read_touchstone",
]

_UNIT_SCALE = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
_PARAMETERS = ("S", "Y", "Z", "G", "H")
_FORMATS = ("RI", "MA", "DB")


@dataclass(frozen=True)
class TouchstoneData:
    """Contents of a Touchstone file.

    Attributes
    ----------
    freqs_hz:
        Sample frequencies in Hz, strictly increasing.
    matrices:
        Parameter samples, shape ``(K, p, p)`` complex.
    parameter:
        Parameter type from the option line ("S", "Y", "Z", ...).
    z0:
        Reference resistance in ohms.
    num_ports:
        Port count ``p``.
    """

    freqs_hz: np.ndarray
    matrices: np.ndarray
    parameter: str
    z0: float

    @property
    def num_ports(self) -> int:
        """Port count p."""
        return int(self.matrices.shape[1])

    @property
    def freqs_rad(self) -> np.ndarray:
        """Angular frequencies in rad/s."""
        return 2.0 * np.pi * self.freqs_hz


def _ports_from_suffix(name: str) -> Optional[int]:
    """Extract the port count from an ``.sNp`` file suffix, if present."""
    match = re.search(r"\.s(\d+)p$", name.lower())
    if match:
        return int(match.group(1))
    return None


def _convert(values: np.ndarray, fmt: str) -> np.ndarray:
    """Convert (a, b) value pairs along the last axis to complex numbers
    per the format."""
    a = values[..., 0::2]
    b = values[..., 1::2]
    if fmt == "RI":
        return a + 1j * b
    if fmt == "MA":
        return a * np.exp(1j * np.deg2rad(b))
    if fmt == "DB":
        return 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))
    raise ValueError(f"unknown number format {fmt!r}")


def _parse_option_line(line: str) -> Tuple[str, str, str, float]:
    """``(unit, parameter, format, z0)`` of a ``#`` option line, with the
    specification's defaults for the fields it omits."""
    unit, parameter, fmt, z0 = "GHZ", "S", "MA", 50.0
    tokens = line[1:].upper().split()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in _UNIT_SCALE:
            unit = tok
        elif tok in _PARAMETERS:
            parameter = tok
        elif tok in _FORMATS:
            fmt = tok
        elif tok == "R":
            if i + 1 >= len(tokens):
                raise ValueError("option line: 'R' without a resistance value")
            z0 = float(tokens[i + 1])
            i += 1
        else:
            raise ValueError(f"option line: unknown token {tok!r}")
        i += 1
    return unit, parameter, fmt, z0


def _comment_free_lines(lines: Iterable[str]) -> Iterator[str]:
    for raw_line in lines:
        line = raw_line.split("!", 1)[0].strip()
        if line:
            yield line


def parse_touchstone(text: str, *, num_ports: Optional[int] = None) -> TouchstoneData:
    """Parse Touchstone file contents.

    Parameters
    ----------
    text:
        Full file contents.
    num_ports:
        Port count; required when it cannot be inferred (parsing from a
        string without a filename).  When omitted the parser infers it
        from the record length of the data itself.

    Raises
    ------
    ValueError
        On malformed option lines, inconsistent record lengths, or
        unsupported constructs.
    """
    unit, parameter, fmt, z0 = _parse_option_line("#")
    saw_option = False

    data_lines: List[str] = []
    for line in _comment_free_lines(text.splitlines()):
        if line.startswith("#"):
            if saw_option:
                # The v1 spec allows only one option line; ignore repeats.
                continue
            saw_option = True
            unit, parameter, fmt, z0 = _parse_option_line(line)
            continue
        if line.startswith("["):
            raise ValueError(
                "Touchstone v2 keyword sections are not supported"
                f" (found {line.split()[0]})"
            )
        data_lines.append(line)

    tokens = " ".join(data_lines).split()
    if not tokens:
        raise ValueError("no data records found")

    data = np.array(tokens, dtype=float)
    if num_ports is None:
        num_ports = _infer_ports(data)
    record_len = 1 + 2 * num_ports * num_ports
    if data.size % record_len:
        raise ValueError(
            f"data length {data.size} is not a multiple of the record length"
            f" {record_len} for {num_ports} ports"
        )
    records = data.reshape(-1, record_len)
    freqs = records[:, 0] * _UNIT_SCALE[unit]
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequencies must be strictly increasing")

    matrices = _convert(records[:, 1:], fmt).reshape(-1, num_ports, num_ports)
    if num_ports == 2:
        # Spec quirk: 2-port data is S11 S21 S12 S22 (column-major).
        matrices = np.ascontiguousarray(matrices.transpose(0, 2, 1))
    return TouchstoneData(
        freqs_hz=freqs, matrices=matrices, parameter=parameter, z0=z0
    )


def _infer_ports(data: np.ndarray) -> int:
    """Infer the port count from the total number count.

    Works when the file holds at least two records: the record length is
    the smallest ``1 + 2 p^2`` dividing the data size with consistent,
    increasing frequencies.
    """
    total = data.size
    for p in range(1, 65):
        record_len = 1 + 2 * p * p
        if total % record_len:
            continue
        k = total // record_len
        freqs = data.reshape(k, record_len)[:, 0]
        if k == 1 or np.all(np.diff(freqs) > 0):
            return p
    raise ValueError("could not infer the port count from the data layout")


def read_parameter(path: Union[str, Path]) -> str:
    """The parameter type (``S``, ``Y``, ``Z``, ...) a Touchstone file's
    option line declares, read without parsing its data.

    Raises
    ------
    ValueError
        On a malformed option line, as :func:`read_touchstone` would.
    """
    with open(path, "r") as handle:
        for line in _comment_free_lines(handle):
            if line.startswith("#"):
                return _parse_option_line(line)[1]
    return _parse_option_line("#")[1]


def read_touchstone(
    path: Union[str, Path], *, num_ports: Optional[int] = None
) -> TouchstoneData:
    """Read a Touchstone file from disk.

    The port count is taken from the ``.sNp`` suffix when present,
    otherwise inferred from the data layout (or given explicitly).
    """
    path = Path(path)
    if num_ports is None:
        num_ports = _ports_from_suffix(path.name)
    with open(path, "r") as handle:
        return parse_touchstone(handle.read(), num_ports=num_ports)
