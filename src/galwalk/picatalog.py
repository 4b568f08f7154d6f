"""Catalog of predicted Galois groups as explicit permutation groups.

Each constructor returns a permkit EnumeratedGroup on the eigenvalue
slots of one scenario coset, carrying its catalog name; galois_id decides
a sample against it by exact rules, or by its cycle-type distribution
where they leave the sample open.  Each constructor fixes a concrete
action on the slots and documents its point-labeling conventions; their
correctness is established by oracle validation in the test suite
(sympy's Galois group at degree 4, distribution matching above), not
derived symbolically.
"""
from __future__ import annotations

from dataclasses import replace
from math import factorial, gcd

from .permkit import (
    EnumeratedGroup,
    block_map,
    cyclic_group,
    enumerate_group,
    identity_perm,
    symmetric_group,
    trivial_group,
    wreath_product,
)

# ---------------------------------------------------------------------------
# permutation-group constructors
# ---------------------------------------------------------------------------

def pi_sl_n(n: int) -> EnumeratedGroup:
    """Full symmetric group on the n eigenvalues (the split connected case)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return replace(symmetric_group(n), name=f"sym{n}")

def pi_sl_n_doubled(n: int) -> EnumeratedGroup:
    """S_n acting simultaneously on eigenvalues and their inverses.

    Points 0..n-1 are the eigenvalues, points n..2n-1 the inverse set; a
    permutation moves both copies in lockstep, so every cycle appears twice.
    """
    sym = symmetric_group(n)
    gens = [block_map((0, 1), [g, g]) for g in sym.generators]
    group = enumerate_group(gens, degree=2 * n)
    assert group.order == sym.order
    return replace(group, name=f"sym{n}_doubled")

def pi_sl_n_tau(n: int) -> EnumeratedGroup:
    """Sign-flip wreath over r = n/2 letter pairs, acting on 4r points.

    Point (pair j, letter in {a, b}, sign in {+, -}) has index
    4j + 2*letter + sign.  The base flips the sign inside each of the 2r
    letters independently; the top is the signed pair group C2 wr S_r, which
    swaps the letters within each pair and permutes the pairs rigidly.  Only
    even n is supported: for odd n the action on the two leftover eigenvalue
    slots is not determined, so we refuse rather than guess.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("only even n is supported")
    signed_pairs = wreath_product(cyclic_group(2), symmetric_group(n // 2))
    group = wreath_product(cyclic_group(2), signed_pairs)
    return replace(group, name=f"signflip_wreath_{n}")

def pi_sl_n_tau_reciprocal(n: int) -> EnumeratedGroup:
    """Subgroup of pi_sl_n_tau cut out by the square-root product relations.

    The two letters of a pair carry square roots of an eigenvalue and of its
    inverse, whose product is rational, and the products of square roots
    across different pairs land in the degree-2n field already; so the only
    sign change available is the simultaneous flip of every square root.
    Generators: the within-pair letter swap for each pair, the global
    coupled sign flip, and rigid pair permutations.  Order 2^(r+1) * r!.

    sympy's quartic Galois group (n = 2) and Frobenius statistics (n = 4)
    validate this as the group sampled Galois groups actually realize; see
    the acceptance suite.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("only even n is supported")
    r = n // 2
    letters = identity_perm(2 * r)  # letter 2j + l of pair j, a 2-point block
    gens = [block_map(letters, [(1, 0)] * (2 * r))]  # negate every square root
    # letter swaps and rigid pair permutations, signs carried along
    signed_pairs = wreath_product(cyclic_group(2), symmetric_group(r))
    gens += [block_map(g, [(0, 1)] * (2 * r)) for g in signed_pairs.generators]
    group = enumerate_group(gens, degree=4 * r)
    assert group.order == 2 ** (r + 1) * factorial(r)
    return replace(group, name=f"reciprocal_wreath_{n}")

def pi_sl_power_identity(n: int, d: int) -> EnumeratedGroup:
    """Direct product of d symmetric groups, one per factor block.

    Point (block b, slot i) has index n*b + i; block b holds the
    eigenvalues of the b-th factor.
    """
    group = wreath_product(symmetric_group(n), trivial_group(d))
    return replace(group, name=f"sym{n}_power{d}")

def pi_sl_power_cyclic(n: int, d: int) -> EnumeratedGroup:
    """Coset group for d cyclically permuted factors: rotations with trivial
    total rotation, block permutations, and the multiplicative unit action.

    Points sit in n blocks of size d; block j holds the d-th roots attached
    to one eigenvalue of the cycle product, slot i carrying the i-th root of
    unity twist.  Index of (block j, slot i) is d*j + i.
    The rotation factor is the kernel of the total-rotation sum, matching
    the determinant-one constraint (rank n-1).
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    blocks = identity_perm(n)

    def affine(a, s):  # slot i -> a*i + s mod d
        return tuple((a * i + s) % d for i in range(d))

    # block j rotates +1 and the reference block n-1 rotates -1
    gens = [
        block_map(blocks, [affine(1, (b == j) - (b == n - 1)) for b in range(n)])
        for j in range(n - 1)
    ]
    # rigid block permutations
    gens += [block_map(t, [affine(1, 0)] * n) for t in symmetric_group(n).generators]
    units = [a for a in range(2, d) if gcd(a, d) == 1]
    # unit action on every block simultaneously
    gens += [block_map(blocks, [affine(a, 0)] * n) for a in units]
    group = enumerate_group(gens, degree=n * d)
    phi = 1 + len(units)
    assert group.order == d ** (n - 1) * factorial(n) * phi
    return replace(group, name=f"cycshift_{n}x{d}")

def pi_restriction_of_scalars(n: int, gal: EnumeratedGroup) -> EnumeratedGroup:
    """S_n wr gal in its imprimitive action on n * gal.degree points.

    gal must be transitive (it is a Galois group acting on the embeddings).
    """
    if gal.orbit_lengths() != (gal.degree,):
        raise ValueError("gal must act transitively")
    group = wreath_product(symmetric_group(n), gal)
    return replace(group, name=f"sym{n}_wr_{gal.order}on{gal.degree}")
