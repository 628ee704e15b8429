"""Quarterly time index: canonical ``YYYYQn`` strings mapped to integer quarter counts.

The integer form (``year*4 + quarter-1``) makes window arithmetic exact and
avoids date-library behavior differences.  Plain integer indices are also
accepted anywhere a time value is parsed, so synthetic panels can use 0,1,2,...
"""

from __future__ import annotations

import re

__all__ = ["is_quarter_label", "quarter_to_int", "int_to_quarter", "parse_time", "format_time"]

_QUARTER_RE = re.compile(r"^(\d{1,4})Q([1-4])$")


def is_quarter_label(value) -> bool:
    """Whether a time cell is a ``YYYYQn`` label (surrounding whitespace ignored)."""
    return _QUARTER_RE.match(str(value).strip()) is not None


def quarter_to_int(label: str) -> int:
    """``'1998Q1'`` -> integer quarter count (year*4 + quarter - 1)."""
    m = _QUARTER_RE.match(label.strip())
    if m is None:
        raise ValueError(f"not a YYYYQn quarter label: {label!r}")
    year, q = int(m.group(1)), int(m.group(2))
    return year * 4 + (q - 1)


def int_to_quarter(t: int) -> str:
    """Inverse of :func:`quarter_to_int`."""
    t = int(t)
    if t < 0:
        raise ValueError(f"negative quarter count: {t}")
    return f"{t // 4}Q{t % 4 + 1}"


def parse_time(value) -> int:
    """Parse a time cell: integer index or ``YYYYQn`` label."""
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return int(value)
    s = str(value).strip()
    if is_quarter_label(s):
        return quarter_to_int(s)
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"time value {value!r} is neither an integer nor YYYYQn") from None


def format_time(t: int, quarterly: bool) -> str:
    """Render an internal integer time as written in output files."""
    return int_to_quarter(t) if quarterly else str(int(t))
