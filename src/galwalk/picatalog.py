"""Catalog of predicted Galois groups as explicit permutation groups.

Each constructor returns a permkit EnumeratedGroup H on the eigenvalue
slots of one scenario coset, carrying its catalog name; galois_id decides
a sample against it by exact rules, or by its cycle-type distribution
where they leave the sample open.  Each docstring labels the points by
roots and proves the container: on a regular semisimple sample of the
coset, Gal(chi) acting on the roots so labelled lies in H.  Rule (c)
compares type distributions, which proves Gal = H only given that.
"""
from __future__ import annotations

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
    """Full symmetric group on the n eigenvalues: Gal permutes chi's roots."""
    if n < 2:
        raise ValueError("need n >= 2")
    return symmetric_group(n)._replace(name=f"sym{n}")

def pi_sl_n_doubled(n: int) -> EnumeratedGroup:
    """S_n acting simultaneously on eigenvalues and their inverses.

    Points 0..n-1 are the eigenvalues l_i of A in diag(A, A^-T), points
    n..2n-1 the eigenvalues 1/l_i of A^-T; sigma(1/l_i) = 1/sigma(l_i), so
    both copies move in lockstep and every cycle appears twice.
    """
    sym = symmetric_group(n)
    gens = [block_map((0, 1), [g, g]) for g in sym.generators]
    group = enumerate_group(gens, degree=2 * n)
    assert group.order == sym.order
    return group._replace(name=f"sym{n}_doubled")

def pi_sl_n_tau_reciprocal(n: int) -> EnumeratedGroup:
    """The swap coset's group, order 2^(r+1) * r! with r = n/2, n = 2 or 4.

    Point 4j + 2l + e is (-1)^e s_j if l = 0, (-1)^(e+1) / s_j if l = 1.  A
    swap element is M = [[0, B], [B^-T, 0]], B in SL_n(Z), so chi_M(x) =
    chi_P(x^2) with P = B B^-T similar to P^-T (B^-1 P B = P^-T): its
    eigenvalues are pairs s_j^2, s_j^-2.  sigma sends s_j to +-s_pi(j)^+-1,
    so Gal lies in (C2 x C2) wr S_r, at n = 2 this V4.  And det(I - P) =
    det(B^T - B) = Pf(B^T - B)^2 = (-1)^r prod (s_j - 1/s_j)^2.  At n = 4,
    prod (s_j - 1/s_j) = +-Pf is a nonzero integer (chi is squarefree);
    negating or inverting one s_j negates it, so sigma does an even number
    of those: the index-2 subgroup of order 16 built here.  At n = 2 the
    product is +-i Pf, so Q(i) lies in the splitting field.  For n >= 6 no
    argument reaches order 2^(r+1) * r!.
    """
    if n not in (2, 4):
        raise ValueError(f"n = {n}: the Pfaffian argument proves Gal lies here only at n = 2, 4")
    r = n // 2
    letters = identity_perm(2 * r)  # letter 2j + l of pair j, a 2-point block
    gens = [block_map(letters, [(1, 0)] * (2 * r))]  # negate every square root
    # s_j -> -1/s_j in one pair, and rigid pair permutations
    signed_pairs = wreath_product(cyclic_group(2), symmetric_group(r))
    gens += [block_map(g, [(0, 1)] * (2 * r)) for g in signed_pairs.generators]
    group = enumerate_group(gens, degree=4 * r)
    assert group.order == 2 ** (r + 1) * factorial(r)
    return group._replace(name=f"reciprocal_wreath_{n}")

def pi_sl_power_identity(n: int, d: int) -> EnumeratedGroup:
    """Direct product of d symmetric groups, one per factor block.

    Point (block b, slot i) has index n*b + i; block b holds the
    eigenvalues of the b-th diagonal block, so Gal, moving each block's
    roots among themselves, lies in S_n^d.
    """
    group = wreath_product(symmetric_group(n), trivial_group(d))
    return group._replace(name=f"sym{n}_power{d}")

def pi_sl_power_cyclic(n: int, d: int) -> EnumeratedGroup:
    """Coset group for d cyclically permuted factors: zeta^i r_j ->
    zeta^(a*i + c_j) r_pi(j) with a a unit mod d and sum c_j = 0 mod d.

    Point d*j + i is zeta^i r_j, zeta a primitive d-th root of unity.  For
    prime d a shift-coset M moves the d blocks in a d-cycle, so chi_M(x) =
    chi_h(x^d) with h in SL_n(Z) the blocks' product around it; r_j^d are
    h's eigenvalues, and det h = 1 lets prod r_j = 1.  sigma sends zeta to
    zeta^a and r_j to zeta^c_j r_pi(j); prod sigma(r_j) = 1 makes the
    total rotation sum c_j zero mod d.
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
    return group._replace(name=f"cycshift_{n}x{d}")

def pi_restriction_of_scalars(n: int, gal: EnumeratedGroup) -> EnumeratedGroup:
    """S_n wr gal in its imprimitive action on n * gal.degree points.

    gal must be transitive: it is Gal(K/Q) acting on the embeddings t_b of
    the field K.  Block b holds the roots of chi_1^t_b, chi_1 the degree-n
    characteristic polynomial over K, and chi = prod_b chi_1^t_b; sigma maps
    the roots of chi_1^t to those of chi_1^(sigma t), so it moves the blocks
    as gal does and the slots within them freely.
    """
    if gal.orbit_lengths != (gal.degree,):
        raise ValueError("gal must act transitively")
    group = wreath_product(symmetric_group(n), gal)
    return group._replace(name=f"sym{n}_wr_{gal.order}on{gal.degree}")
