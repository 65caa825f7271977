"""File formats for pmfs and recorded samples.

pmf text format: one decimal probability per line, line i holding p_i for
the 1-indexed domain element i; '#' starts a comment. Values are written
with repr so a round trip reproduces identical 64-bit floats.

pmf binary format (for large n): 8-byte magic, little-endian uint64 n,
then n little-endian float64 values. Readers auto-detect the magic.

sample format: one integer per line, a 1-indexed domain element.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .distributions import (
    FileSampleStream,
    ProbabilityVector,
    _checked_pmf,
    validate_pmf,
)
from .errors import BadParams

PMF_MAGIC = b"PMF1F64\x00"


def write_pmf(path, p: ProbabilityVector, binary: bool = False) -> None:
    path = Path(path)
    if binary:
        with open(path, "wb") as fh:
            fh.write(PMF_MAGIC)
            fh.write(np.uint64(p.n).astype("<u8").tobytes())
            fh.write(p.probs.astype("<f8").tobytes())
        return
    lines = [f"# pmf over domain of size {p.n}; line i = p_i (1-indexed)"]
    lines.extend(repr(float(x)) for x in p.probs)
    path.write_text("\n".join(lines) + "\n")


def _text_lines(path, raw: bytes):
    """(lineno, text) per non-blank line of UTF-8 text, '#' comments cut."""
    try:
        decoded = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadParams(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(decoded.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def read_pmf(path) -> ProbabilityVector:
    path = Path(path)
    # numpy owns the file's buffer, so a binary pmf is a read-only view of it:
    # its values are not copied again, and lookups read numpy-allocated memory
    raw = np.fromfile(path, dtype=np.uint8)
    raw.flags.writeable = False
    if raw[: len(PMF_MAGIC)].tobytes() == PMF_MAGIC:
        body = raw[len(PMF_MAGIC) :]
        if body.size < 8:
            raise BadParams(f"binary pmf {path}: header truncated before n")
        if (body.size - 8) % 8:
            raise BadParams(
                f"binary pmf {path}: {body.size - 8} value bytes is not a multiple of 8"
            )
        n = int(body[:8].view("<u8")[0])
        vals = body[8:].view("<f8")
        if vals.size != n:
            raise BadParams(
                f"binary pmf {path}: header says n={n} but {vals.size} values follow"
            )
        return _checked_pmf(vals)
    values = []
    for lineno, text in _text_lines(path, raw.tobytes()):
        try:
            values.append(float(text))
        except ValueError:
            raise BadParams(f"{path}: line {lineno}: not a probability: {text!r}")
    if not values:
        raise BadParams(f"{path}: no probabilities found")
    return validate_pmf(values)


def write_samples(path, samples_0based: np.ndarray) -> None:
    path = Path(path)
    out = np.asarray(samples_0based, dtype=np.int64) + 1
    path.write_text("\n".join(str(int(i)) for i in out) + "\n")


def read_samples(path, n: int) -> FileSampleStream:
    path = Path(path)
    values = []
    for lineno, text in _text_lines(path, path.read_bytes()):
        try:
            idx = int(text)
        except ValueError:
            raise BadParams(f"{path}: line {lineno}: not an index: {text!r}")
        if not 1 <= idx <= n:
            raise BadParams(
                f"{path}: line {lineno}: index {idx} outside [1, {n}]"
            )
        values.append(idx - 1)
    return FileSampleStream(np.asarray(values, dtype=np.int64), n=n)
