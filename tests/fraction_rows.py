"""Test-only view of a galwalk matrix's entries as Fractions.

galwalk keeps a matrix as integer rows over one denominator and never
reads its entries as Fractions; the reference computations here do.
"""
from fractions import Fraction


def fraction_rows(m) -> tuple[tuple[Fraction, ...], ...]:
    """The entries of m = num / den, row by row."""
    return tuple(tuple(Fraction(e, m.den) for e in row) for row in m.num)
