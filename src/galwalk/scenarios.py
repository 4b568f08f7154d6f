"""Built-in walk scenarios: generator sets with coset labels and the
predicted group bound to each coset.

A scenario with m cosets lists one spec per coset; a coset's label is its
position 0..m-1 in that list, and labels add mod m (every component group
here is the cyclic Z/m); a walk's coset is the sum of its generators'
labels.

A scenario owns the embedding conventions (block matrices, the quadratic
ring embedding) and declares, per coset, the generic eigenvalue
multiplicity of its characteristic polynomials and the one permutation
group its samples are decided against (galois_id's exact rules first,
Frobenius statistics where they leave a sample open); the group's
picatalog constructor proves that Gal lies in it.
get_scenario(name) builds a scenario on its first use and keeps it.
"""
from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .exactmat import RationalMatrix, from_int, mat_inverse
from .permkit import EnumeratedGroup, symmetric_group
from .picatalog import (
    pi_restriction_of_scalars,
    pi_sl_n,
    pi_sl_n_doubled,
    pi_sl_n_tau_reciprocal,
    pi_sl_power_cyclic,
    pi_sl_power_identity,
)
from .walker import GeneratorSet, make_admissible


class CosetSpec(NamedTuple):
    """Per-coset identification data.

    multiplicity is the generic eigenvalue multiplicity of characteristic
    polynomials on this coset: a sample is regular semisimple iff its
    characteristic polynomial is q**multiplicity with q squarefree.
    predicted = None marks a coset with no predicted group (the
    counterexample scenario reports exact quadratic outcomes instead).
    """

    name: str
    predicted: EnumeratedGroup | None
    multiplicity: int = 1


class _ScenarioFields(NamedTuple):
    name: str
    dimension: int
    raw_generators: tuple
    cosets: tuple[CosetSpec, ...]
    description: str
    # n for each SL_n(F_p) the mod-p identity coset contains (see
    # finfield.closure_order_bound)
    sl_factors: tuple[int, ...] = ()


class Scenario(_ScenarioFields):
    """A walk's raw (matrix, label) generators and its cosets' specs,
    checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.cosets:
            raise ValueError("cosets must be nonempty")
        for mat, _ in self.raw_generators:
            if mat.n != self.dimension:
                raise ValueError("generator dimension mismatch")
        for c in self.cosets:
            group = c.predicted
            if group is not None and group.degree != self.dimension:
                raise ValueError(
                    f"coset {c.name!r}: group {group.name} has degree "
                    f"{group.degree}, not the dimension {self.dimension}"
                )
        return self

    def admissible(self) -> GeneratorSet:
        """The walk's admissible generator set, built on the first call."""
        return _admissible(self.raw_generators, len(self.cosets))

    def coset(self, label: int) -> CosetSpec:
        if not 0 <= label < len(self.cosets):
            raise KeyError(label)
        return self.cosets[label]

    @property
    def has_predictions(self) -> bool:
        return any(c.predicted is not None for c in self.cosets)


# one generator set per (raw generators, coset count): a scenario builds
# its own on the first admissible() call
_admissible = lru_cache(maxsize=None)(make_admissible)


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def elementary(n: int, i: int, j: int, v: int = 1) -> RationalMatrix:
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    rows[i][j] = v
    return from_int(rows, 1)


def _sl_generators(n: int) -> list[RationalMatrix]:
    # all unit elementary matrices; the full set mixes noticeably faster
    # than adjacent transvections alone at desk-scale walk lengths
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                gens.append(elementary(n, i, j))
    return gens


def _block_diag(blocks: list[RationalMatrix]) -> RationalMatrix:
    n = sum(b.n for b in blocks)
    den = lcm(*(b.den for b in blocks))
    rows = []
    off = 0
    for b in blocks:
        scale = den // b.den
        for row in b.num:
            rows.append([0] * off + [scale * e for e in row] + [0] * (n - off - b.n))
        off += b.n
    return from_int(rows, den)


def dual_pair_embed(a: RationalMatrix) -> RationalMatrix:
    """A |-> diag(A, transpose-inverse of A) in twice the dimension."""
    return _block_diag([a, mat_inverse(a.transpose())])


def factor_embed(a: RationalMatrix, index: int, copies: int) -> RationalMatrix:
    """A in the index-th of `copies` diagonal blocks, identity elsewhere."""
    blocks = [
        a if b == index else RationalMatrix.identity(a.n) for b in range(copies)
    ]
    return _block_diag(blocks)


def block_shift_matrix(n: int, copies: int) -> RationalMatrix:
    """Cyclic shift of `copies` n-blocks: block b moves to block b+1."""
    size = n * copies
    rows = [[0] * size for _ in range(size)]
    for b in range(copies):
        for i in range(n):
            rows[((b + 1) % copies) * n + i][b * n + i] = 1
    return from_int(rows, 1)


def sqrt2_embed(entries) -> RationalMatrix:
    """2x2 matrix over Z[sqrt2] into GL_4(Q); each entry (a, b), integers,
    means a+b*sqrt2.

    The ring element acts by its regular representation [[a, 2b], [b, a]].
    """
    rows = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            a, b = entries[i][j]
            rows[2 * i][2 * j] = a
            rows[2 * i][2 * j + 1] = 2 * b
            rows[2 * i + 1][2 * j] = b
            rows[2 * i + 1][2 * j + 1] = a
    return from_int(rows, 1)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _sl_scenario(n: int) -> Scenario:
    raw = tuple((g, 0) for g in _sl_generators(n))
    return Scenario(
        name=f"sl{n}",
        dimension=n,
        raw_generators=raw,
        cosets=(CosetSpec("identity", pi_sl_n(n)),),
        description=f"integer unimodular walks in dimension {n}; "
        f"expected full symmetric group on {n} eigenvalues",
        sl_factors=(n,),
    )


def _sl_tau_scenario(n: int) -> Scenario:
    raw = [(dual_pair_embed(g), 0) for g in _sl_generators(n)]
    raw.append((block_shift_matrix(n, 2), 1))
    return Scenario(
        name=f"sltau{n}",
        dimension=2 * n,
        raw_generators=tuple(raw),
        cosets=(
            CosetSpec(
                "identity",
                pi_sl_n_doubled(n),
                multiplicity=2 if n == 2 else 1,
            ),
            CosetSpec("swap", pi_sl_n_tau_reciprocal(n)),
        ),
        description=f"dimension-{n} unimodular walks extended by the "
        "transpose-inverse involution, embedded in twice the dimension; "
        "the two cosets have different predicted groups",
        sl_factors=(n,),
    )


def _sl_power_cyclic_scenario(n: int, d: int) -> Scenario:
    raw = [(factor_embed(g, 0, d), 0) for g in _sl_generators(n)]
    raw.append((block_shift_matrix(n, d), 1))
    cosets = [CosetSpec("identity", pi_sl_power_identity(n, d))]
    shifted = pi_sl_power_cyclic(n, d)
    for j in range(1, d):
        cosets.append(CosetSpec(f"shift{j}", shifted))
    return Scenario(
        name=f"slcyc{n}x{d}",
        dimension=n * d,
        raw_generators=tuple(raw),
        cosets=tuple(cosets),
        description=f"{d} dimension-{n} factors permuted cyclically; "
        "shifted cosets pick up root-of-unity structure",
        sl_factors=(n,) * d,
    )


def _sqrt2_scenario() -> Scenario:
    z, o = (0, 0), (1, 0)
    s = (0, 1)  # sqrt2
    raw = (
        (sqrt2_embed([[o, o], [z, o]]), 0),
        (sqrt2_embed([[o, z], [o, o]]), 0),
        (sqrt2_embed([[o, s], [z, o]]), 0),
        (sqrt2_embed([[o, z], [s, o]]), 0),
    )
    return Scenario(
        name="res_sqrt2",
        dimension=4,
        raw_generators=raw,
        cosets=(
            CosetSpec(
                "identity",
                pi_restriction_of_scalars(2, symmetric_group(2)),
            ),
        ),
        description="unimodular walks over the quadratic ring Z[sqrt2], "
        "embedded rationally in dimension 4; characteristic polynomials "
        "split into two conjugate quadratics",
        # SL_2(F_p)^2 where 2 is a square mod p, SL_2(F_p^2) otherwise
        sl_factors=(2, 2),
    )


def _diag_antidiag_scenario() -> Scenario:
    a = RationalMatrix.diagonal([2, 3])
    j = RationalMatrix([[0, 1], [1, 0]])
    return Scenario(
        name="diag_antidiag",
        dimension=2,
        raw_generators=((a, 0), (j, 1)),
        cosets=(
            CosetSpec("diagonal", None),
            CosetSpec("antidiagonal", None),
        ),
        description="diagonal/antidiagonal walks whose closure has a central "
        "torus: no typical Galois behaviour exists off the identity coset, "
        "so rows report exact quadratic outcomes instead of verdicts",
    )


_BUILDERS = {
    "sl2": lambda: _sl_scenario(2),
    "sl3": lambda: _sl_scenario(3),
    "sl4": lambda: _sl_scenario(4),
    "sltau2": lambda: _sl_tau_scenario(2),
    "sltau4": lambda: _sl_tau_scenario(4),
    "slcyc2x2": lambda: _sl_power_cyclic_scenario(2, 2),
    "slcyc2x3": lambda: _sl_power_cyclic_scenario(2, 3),
    "res_sqrt2": _sqrt2_scenario,
    "diag_antidiag": _diag_antidiag_scenario,
}


@lru_cache(maxsize=None)
def get_scenario(name: str) -> Scenario:
    """The built-in scenario `name`, built on its first use and then kept
    (scenarios are immutable); ValueError for any other name."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown scenario {name!r}")
    return _BUILDERS[name]()


def builtin_scenarios() -> dict[str, Scenario]:
    """Name -> scenario for every built-in one, in listing order."""
    return {name: get_scenario(name) for name in _BUILDERS}
