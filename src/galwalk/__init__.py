"""galwalk: random walks on linear groups and the Galois groups of their
characteristic polynomials, identified per connected-component coset.

Records are typing.NamedTuple classes.  One whose trailing fields are
annotations (a group's generators and catalog name, a summary's
frequency table) sets `_compared` to the number of leading fields that
make its value and takes its equality and hash from leading_eq and
leading_hash, with `__ne__ = object.__ne__` inverting that equality.
"""

__version__ = "0.1.0"


def leading_eq(self, other):
    """Equality on the record's first self._compared fields; another type
    is NotImplemented."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    k = self._compared
    return self[:k] == other[:k]


def leading_hash(self) -> int:
    """The hash of the record's first self._compared fields."""
    return hash(self[:self._compared])
