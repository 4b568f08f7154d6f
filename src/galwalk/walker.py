"""Random walks on finitely generated matrix groups with coset labels.

Each generator carries a coset label, an integer mod the coset count m
(every scenario's component group is the cyclic Z/m), and a walk's label
is the sum of its letters' labels mod m.  A generator set is made
admissible by closing it under inverses and padding with the identity
(the lazy-walk device); steps are then drawn uniformly from the resulting
multiset.  Each sample's randomness comes from its own splitmix64 stream
keyed by (seed, sample index), so batches are reproducible bit-for-bit
regardless of evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .exactmat import (
    RationalMatrix,
    SingularMatrix,
    mat_inverse,
    product_of,
    right_action,
)

RNG_ALGORITHM = "splitmix64"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Counter-based 64-bit generator (splitmix64, standard constants)."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def draws(self, n: int, k: int) -> tuple[int, ...]:
        """k uniform draws from range(n) by rejection (no modulo bias): an
        output at or above the largest multiple of n below 2^64 is drawn
        again.  That limit is computed once for all k draws."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        out = []
        while len(out) < k:
            x = self.next_uint64()
            if x < limit:
                out.append(x % n)
        return tuple(out)


def stream_for(seed: int, index: int) -> SplitMix64:
    """Independent stream for sample `index` of run `seed`."""
    return SplitMix64((seed * _GAMMA + index) & _MASK)


@dataclass(frozen=True)
class GeneratorSet:
    """Admissible generating multiset: inverse-closed and identity-padded.

    Uniform sampling over `generators` defines the walk step distribution,
    and labels add mod coset_count.  actions[i] is generators[i]'s matrix
    as an exactmat.right_action, which walk products run on.  Built by
    make_admissible only.
    """

    generators: tuple[tuple[RationalMatrix, int], ...]
    coset_count: int
    actions: tuple = field(compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return self.generators[0][0].n

    @property
    def size(self) -> int:
        return len(self.generators)


def make_admissible(raw, coset_count: int) -> GeneratorSet:
    """Close the raw (matrix, label) pairs under inverses and add identity;
    the inverse of a generator labelled lab is labelled -lab mod coset_count.

    Raises on an empty input, generators of different dimensions, a
    singular generator, or a label outside range(coset_count).
    """
    pairs = list(raw)
    if not pairs:
        raise ValueError("empty generating set")
    dim = pairs[0][0].n
    if any(g.n != dim for g, _ in pairs):
        raise ValueError("generators must share one dimension")
    out: list[tuple[RationalMatrix, int]] = []
    seen = set()

    def push(g: RationalMatrix, lab: int):
        key = (g, lab)
        if key not in seen:
            seen.add(key)
            out.append(key)

    for g, lab in pairs:
        if not (0 <= lab < coset_count):
            raise ValueError(f"label {lab} outside range({coset_count})")
        try:
            ginv = mat_inverse(g)
        except SingularMatrix:
            raise ValueError("singular generator") from None
        push(g, lab)
        push(ginv, -lab % coset_count)
    push(RationalMatrix.identity(dim), 0)
    return GeneratorSet(tuple(out), coset_count, tuple(right_action(g) for g, _ in out))


@dataclass(frozen=True)
class WalkSample:
    """One k-step walk value with its coset label and provenance."""

    element: RationalMatrix
    label: int
    length: int
    seed_path: tuple[int, int]


def draw_word(gens: GeneratorSet, k: int, seed: int, index: int) -> tuple[int, ...]:
    """The k generator indices drawn by sample (seed, index)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return stream_for(seed, index).draws(gens.size, k)


def sample_walk(gens: GeneratorSet, k: int, seed: int, index: int) -> WalkSample:
    """Ordered product of k uniform generator draws; deterministic in (seed, index)."""
    word = draw_word(gens, k, seed, index)
    element = product_of([gens.actions[i] for i in word], gens.dimension)
    label = sum(gens.generators[i][1] for i in word) % gens.coset_count
    return WalkSample(element, label, k, (seed, index))


def batch_sample(gens: GeneratorSet, k: int, count: int, seed: int) -> list[WalkSample]:
    """Samples at indices 0..count-1; order-stable by construction."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [sample_walk(gens, k, seed, i) for i in range(count)]
