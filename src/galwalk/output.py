"""Bit-stable CSV/JSON emission.

A fixed config must produce byte-identical files on every machine, so all
numeric formatting is done with exact integer arithmetic (no floats, no
locale) and metadata keys are written in sorted order.  Every row must have
exactly the header's keys.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction


def dec6(x) -> str:
    """Exact fixed-point rendering with six places (round half to even)."""
    if isinstance(x, int):
        x = Fraction(x)
    scaled = x * 10**6
    n = scaled.numerator
    d = scaled.denominator
    q, r = divmod(abs(n), d)
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    sign = "-" if n < 0 and q > 0 else ""
    return f"{sign}{q // 10**6}.{q % 10**6:06d}"


def format_value(v) -> str | int:
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return dec6(v)
    if isinstance(v, tuple):  # cycle types
        return "+".join(str(p) for p in v)
    if isinstance(v, str):
        return v
    raise TypeError(f"unsupported value type {type(v)!r}")


def format_rows(rows, fieldnames) -> list[dict]:
    """Each row's values in fieldnames order; ValueError on a row whose keys
    are not exactly the fieldnames, so no column is dropped or left blank."""
    header = set(fieldnames)
    out = []
    for row in rows:
        if row.keys() != header:
            raise ValueError(f"row keys {sorted(row)} differ from the header {list(fieldnames)}")
        out.append({k: format_value(row[k]) for k in fieldnames})
    return out


def render_csv(rows, fieldnames, metadata) -> str:
    buf = io.StringIO()
    for key in sorted(metadata):
        buf.write(f"# {key}={format_value(metadata[key])}\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in format_rows(rows, fieldnames):
        writer.writerow(row)
    return buf.getvalue()


def render_json(rows, fieldnames, metadata) -> str:
    payload = [{"metadata": {k: format_value(metadata[k]) for k in sorted(metadata)}}]
    payload.extend(format_rows(rows, fieldnames))
    return json.dumps(payload, indent=2) + "\n"


def emit(rows, fieldnames, metadata, path: str, fmt: str = "csv") -> None:
    """Write rows to path; fmt is "csv" or "json"; UTF-8, newline-terminated."""
    if fmt == "csv":
        text = render_csv(rows, fieldnames, metadata)
    elif fmt == "json":
        text = render_json(rows, fieldnames, metadata)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
