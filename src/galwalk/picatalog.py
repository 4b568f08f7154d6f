"""Catalog of predicted Galois groups as explicit permutation groups, plus
the integer-lattice computation behind coset Weyl group structure.

Each constructor fixes a concrete action on the eigenvalue slots of one
scenario coset.  The point-labeling conventions are documented per
constructor; their correctness is established by oracle validation in the
test suite (exact quartic classification at degree 4, distribution matching
above), not derived symbolically.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial, gcd, prod
from operator import mul

from .exactmat import RationalMatrix, det, mat_inverse, mat_mul
from .permkit import (
    EnumeratedGroup,
    cyclic_group,
    enumerate_group,
    symmetric_group,
    trivial_group,
    wreath_product,
)

@dataclass(frozen=True)
class PredictedGroup:
    """A named permutation group on the N eigenvalue slots of a scenario.

    natural_symmetric is set to n when the group is the full symmetric group
    in its natural action; that enables the S_n transposition/long-cycle
    certificate during identification.
    """

    name: str
    group: EnumeratedGroup
    N: int
    natural_symmetric: int | None = None

    def __post_init__(self):
        if self.N != self.group.degree:
            raise ValueError("N must equal the permutation degree")

# ---------------------------------------------------------------------------
# permutation-group constructors
# ---------------------------------------------------------------------------

def pi_sl_n(n: int) -> PredictedGroup:
    """Full symmetric group on the n eigenvalues (the split connected case)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return PredictedGroup(f"sym{n}", symmetric_group(n), n, natural_symmetric=n)

def pi_sl_n_doubled(n: int) -> PredictedGroup:
    """S_n acting simultaneously on eigenvalues and their inverses.

    Points 0..n-1 are the eigenvalues, points n..2n-1 the inverse set; a
    permutation moves both copies in lockstep, so every cycle appears twice.
    """
    sym = symmetric_group(n)
    gens = []
    for g in sym.generators:
        gens.append(tuple(list(g) + [n + g[i] for i in range(n)]))
    group = enumerate_group(gens, degree=2 * n)
    assert group.order == sym.order
    return PredictedGroup(f"sym{n}_doubled", group, 2 * n)

def pi_sl_n_tau(n: int) -> PredictedGroup:
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
    r = n // 2
    signed_pairs = wreath_product(cyclic_group(2), symmetric_group(r))
    group = wreath_product(cyclic_group(2), signed_pairs)
    return PredictedGroup(f"signflip_wreath_{n}", group, 4 * r)

def pi_sl_n_tau_reciprocal(n: int) -> PredictedGroup:
    """Subgroup of pi_sl_n_tau cut out by the square-root product relations.

    The two letters of a pair carry square roots of an eigenvalue and of its
    inverse, whose product is rational, and the products of square roots
    across different pairs land in the degree-2n field already; so the only
    sign change available is the simultaneous flip of every square root.
    Generators: the within-pair letter swap for each pair, the global
    coupled sign flip, and rigid pair permutations.  Order 2^(r+1) * r!.

    The exact quartic oracle (n = 2) and Frobenius statistics (n = 4)
    validate this as the group sampled Galois groups actually realize; see
    the acceptance suite.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("only even n is supported")
    r = n // 2
    size = 4 * r

    def idx(j, letter, sign):
        return 4 * j + 2 * letter + sign

    gens = []
    flip_all = list(range(size))  # negate every square root at once
    for j in range(r):
        for letter in range(2):
            a, b = idx(j, letter, 0), idx(j, letter, 1)
            flip_all[a], flip_all[b] = flip_all[b], flip_all[a]
    gens.append(tuple(flip_all))
    for j in range(r):
        g = list(range(size))  # letter swap, signs carried along
        for s in range(2):
            g[idx(j, 0, s)], g[idx(j, 1, s)] = g[idx(j, 1, s)], g[idx(j, 0, s)]
        gens.append(tuple(g))
    for j in range(r - 1):
        g = list(range(size))  # rigid pair transposition
        for off in range(4):
            g[4 * j + off], g[4 * (j + 1) + off] = (
                g[4 * (j + 1) + off],
                g[4 * j + off],
            )
        gens.append(tuple(g))
    group = enumerate_group(gens, degree=size)
    assert group.order == 2 ** (r + 1) * factorial(r)
    return PredictedGroup(f"reciprocal_wreath_{n}", group, size)

def pi_sl_power_identity(n: int, d: int) -> PredictedGroup:
    """Direct product of d symmetric groups, one per factor block.

    Point (block b, slot i) has index n*b + i; block b holds the
    eigenvalues of the b-th factor.
    """
    group = wreath_product(symmetric_group(n), trivial_group(d))
    return PredictedGroup(f"sym{n}_power{d}", group, n * d)

def pi_sl_power_cyclic(n: int, d: int) -> PredictedGroup:
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
    size = n * d
    gens = []
    for j in range(n - 1):
        g = list(range(size))  # block j rotates +1, reference block -1
        for i in range(d):
            g[d * j + i] = d * j + (i + 1) % d
            g[d * (n - 1) + i] = d * (n - 1) + (i - 1) % d
        gens.append(tuple(g))
    for j in range(n - 1):
        g = list(range(size))  # rigid adjacent block transposition
        for i in range(d):
            g[d * j + i], g[d * (j + 1) + i] = g[d * (j + 1) + i], g[d * j + i]
        gens.append(tuple(g))
    units = [a for a in range(2, d) if gcd(a, d) == 1]
    for a in units:
        g = list(range(size))  # unit action on every block simultaneously
        for j in range(n):
            for i in range(d):
                g[d * j + i] = d * j + (a * i) % d
        gens.append(tuple(g))
    group = enumerate_group(gens, degree=size)
    phi = 1 + len(units)
    assert group.order == d ** (n - 1) * factorial(n) * phi
    return PredictedGroup(f"cycshift_{n}x{d}", group, size)

def pi_restriction_of_scalars(n: int, gal: EnumeratedGroup) -> PredictedGroup:
    """S_n wr gal in its imprimitive action on n * gal.degree points.

    gal must be transitive (it is a Galois group acting on the embeddings).
    """
    if len({g[0] for g in gal.elements}) != gal.degree:  # orbit of point 0
        raise ValueError("gal must act transitively")
    group = wreath_product(symmetric_group(n), gal)
    return PredictedGroup(
        f"sym{n}_wr_{gal.order}on{gal.degree}", group, n * gal.degree
    )

# ---------------------------------------------------------------------------
# integer lattices: Smith normal form and coset Weyl structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeAutomorphism:
    """Finite-order automorphism of Z^rank given by an integer matrix.

    The matrix acts on column vectors; determinant must be +1 or -1.
    """

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        r = len(self.matrix)
        if r == 0 or any(len(row) != r for row in self.matrix):
            raise ValueError("matrix must be square and nonempty")
        if det(RationalMatrix(self.matrix)) not in (1, -1):
            raise ValueError("matrix must be unimodular")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def order(self, bound: int = 1000) -> int:
        ident = tuple(
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        )
        acc = self.matrix
        for k in range(1, bound + 1):
            if acc == ident:
                return k
            acc = _int_mat_mul(acc, self.matrix)
        raise ValueError(f"no finite order up to {bound}")

def _int_mat_mul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )

def _int_mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)

def smith_normal_form(mat) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Return (diagonal, U, V) with U*mat*V diagonal, U and V unimodular.

    Row/column reduction over arbitrary-precision integers; the diagonal is
    nonnegative with each entry dividing the next.  Ranks here never exceed
    a handful, so no care for asymptotics is taken.
    """
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def move_smallest_pivot(t) -> bool:
        pivot, best = None, None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best, pivot = abs(a[i][j]), (i, j)
        if pivot is None:
            return False
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        return True

    t = 0
    while t < min(rows, cols):
        if not move_smallest_pivot(t):
            break
        while True:
            # clear the pivot column, swapping in any nonzero remainder
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            # pivot must divide the rest of the submatrix
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is not None:
                add_row(offender, t, 1)
                continue
            break
        t += 1

    k = min(rows, cols)
    for i in range(k):
        if a[i][i] < 0:
            for j in range(cols):
                a[i][j] = -a[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]
    diag = [a[i][i] for i in range(k)]
    return diag, u, v

def integer_kernel(mat) -> list[tuple[int, ...]]:
    """Basis (as column vectors) of {x in Z^cols : mat @ x = 0}.

    Columns of the SNF right transform whose diagonal entry vanishes; the
    resulting lattice is saturated because V is unimodular.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if rows == 0:
        return [tuple(int(i == j) for i in range(cols)) for j in range(cols)]
    diag, _, v = smith_normal_form(mat)
    basis = []
    for j in range(cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            basis.append(tuple(v[i][j] for i in range(cols)))
    return basis

@dataclass(frozen=True)
class CosetWeylReport:
    """Structure of the coset Weyl group computed from lattice data."""

    n: int
    fixed_weyl_order: int
    torsion_invariants: tuple[int, ...]
    torsion_order: int
    total_order: int

def identity_lattice_map(n: int) -> LatticeAutomorphism:
    r = n - 1
    return LatticeAutomorphism(
        tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    )

def dual_flip_lattice_map(n: int) -> LatticeAutomorphism:
    """Action of the transpose-inverse coset on the weight lattice of rank n-1.

    In the basis f_1..f_{n-1} (images of the diagonal characters e_1..e_{n-1},
    with e_n = -(f_1+...+f_{n-1})), the map sends e_i to -e_{n+1-i}.
    """
    r = n - 1
    cols = []
    for i in range(r):  # image of f_i is -e_{n-1-i} (0-based target)
        target = n - 1 - i
        if target == r:  # -e_n = f_1 + ... + f_{n-1}
            cols.append([1] * r)
        else:
            col = [0] * r
            col[target] = -1
            cols.append(col)
    return LatticeAutomorphism(
        tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
    )

def _perm_weight_matrix(n: int, sigma) -> tuple[tuple[int, ...], ...]:
    """Matrix of e_i -> e_sigma(i) on the rank n-1 weight lattice."""
    r = n - 1
    cols = []
    for i in range(r):
        target = sigma[i]
        if target == r:
            cols.append([-1] * r)
        else:
            col = [0] * r
            col[target] = 1
            cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))

def coset_weyl_structure(n: int, tau: LatticeAutomorphism) -> CosetWeylReport:
    """Coset Weyl group size from the weight-lattice action of the coset.

    Two layers are computed and multiplied:
      * the subgroup of the rank n-1 Weyl group (S_n on the weight lattice)
        commuting with tau, by direct enumeration;
      * the finite fixed-point group of tau on the quotient torus, read off
        from the Smith normal form of (tau - 1) restricted to the saturation
        of its image.
    """
    r = n - 1
    if tau.rank != r:
        raise ValueError(f"tau must act on the rank {r} lattice")
    tau.order()  # raises for non-finite-order input
    m = tau.matrix

    fixed = 0
    for sigma in permutations(range(n)):
        pm = _perm_weight_matrix(n, sigma)
        if _int_mat_mul(pm, m) == _int_mat_mul(m, pm):
            fixed += 1

    a = tuple(
        tuple(m[i][j] - int(i == j) for j in range(r)) for i in range(r)
    )
    lk = integer_kernel(tuple(zip(*a)))  # rows y with y @ a = 0
    basis = integer_kernel(lk) if lk else [
        tuple(int(i == j) for i in range(r)) for j in range(r)
    ]
    if not basis:
        invariants: tuple[int, ...] = ()
        torsion_order = 1
    else:
        images = [_int_mat_vec(a, b) for b in basis]
        coords = _solve_in_basis(basis, images)
        diag, _, _ = smith_normal_form(coords)
        assert all(d != 0 for d in diag), "restriction is not injective"
        invariants = tuple(d for d in diag if d != 1)
        torsion_order = prod(diag) if diag else 1
    return CosetWeylReport(
        n=n,
        fixed_weyl_order=fixed,
        torsion_invariants=invariants,
        torsion_order=torsion_order,
        total_order=fixed * torsion_order,
    )

def _solve_in_basis(basis, images) -> list[list[int]]:
    """Coordinates of each image vector in the given lattice basis.

    basis: list of s independent column vectors in Z^r; images: list of s
    vectors lying in their span.  With B the r x s basis matrix the
    coordinates are (B^T B)^-1 B^T y.  Returns the s x s integer coordinate
    matrix, column j holding the coordinates of images[j].
    """
    def dots(us, vs):
        vs = list(vs)
        return [[sum(map(mul, u, v)) for v in vs] for u in us]

    coords = mat_mul(
        mat_inverse(RationalMatrix(dots(basis, basis))),
        RationalMatrix(dots(basis, images)),
    )
    assert coords.integral, "non-integral coordinate"
    out = [[e.numerator for e in row] for row in coords.rows]
    assert dots(zip(*basis), zip(*out)) == [list(y) for y in zip(*images)], (
        "image not in basis span"
    )
    return out
