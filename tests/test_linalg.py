"""Exact linear algebra: the dense views ``rref``, ``reduce_mod_rref`` and
``kernel_basis`` and the one eliminator behind them, pinned against the
dense Fraction Gauss-Jordan elimination they replaced.  The dense matrix
arithmetic of the oracle's earlier modules lives here too, for the dense
references in ``test_oracle.py``."""

import random
from fractions import Fraction

import pytest

from cycloribbon.linalg import SparseEchelon, kernel_basis, reduce_mod_rref, rref


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s, a):
    return [[s * x for x in row] for row in a]


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def reference_rref(rows):
    """Reduced row echelon form.  Returns (rref rows without zero rows,
    pivot column indices)."""
    mat = [list(map(Fraction, row)) for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_reduce_mod_rref(rref_rows, pivots, vec):
    """Representative of ``vec`` modulo the row space: pivot coordinates
    are cleared."""
    v = list(map(Fraction, vec))
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def reference_kernel_basis(mat, ncols=None):
    """Basis of the right kernel of a matrix (rows = equations)."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    if not mat:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    rows, pivots = reference_rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return basis


def random_entry(rng, kind):
    if rng.random() < 0.4:
        return 0
    if kind is int:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_matrix(rng, nrows, ncols, kind):
    return [[random_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]


def with_dependent_rows(rng, rows):
    """``rows`` plus a zero row, a duplicate and a sum of two rows, shuffled."""
    if not rows:
        return rows
    ncols = len(rows[0])
    a, b = rng.choice(rows), rng.choice(rows)
    out = rows + [[0] * ncols, list(a), [x + y for x, y in zip(a, b)]]
    rng.shuffle(out)
    return out


def full_rank(rng, size, kind):
    """Upper triangular with a nonzero diagonal, rows shuffled."""
    rows = [[(random_entry(rng, kind) if j > i else 0) for j in range(size)]
            for i in range(size)]
    for i in range(size):
        rows[i][i] = kind(rng.choice([-2, -1, 1, 3]))
    rng.shuffle(rows)
    return rows


def cases():
    rng = random.Random(20261018)
    out = [("empty", [], 0), ("no-rows", [], 4), ("no-columns", [[], []], 0),
           ("rank-0", [[0] * 5 for _ in range(3)], 5),
           ("rank-0-fraction", [[Fraction(0)] * 3 for _ in range(4)], 3)]
    for kind in (int, Fraction):
        name = kind.__name__
        for size in (1, 4, 7):
            out.append((f"full-rank-{size}-{name}", full_rank(rng, size, kind), size))
        for nrows, ncols in [(1, 1), (3, 3), (3, 8), (8, 3), (5, 5), (6, 11)]:
            for seed in range(3):
                rows = random_matrix(rng, nrows, ncols, kind)
                out.append((f"{nrows}x{ncols}-{name}-{seed}", rows, ncols))
                out.append((f"{nrows}x{ncols}-{name}-{seed}-dependent",
                            with_dependent_rows(rng, rows), ncols))
    return out


CASES = cases()
IDS = [name for name, _, _ in CASES]


def echelon_of(rows):
    ech = SparseEchelon()
    for row in rows:
        ech.insert(dict(enumerate(row)))
    return ech


def sparse(vec):
    return {k: x for k, x in enumerate(vec) if x}


def integral_entries_are_ints(rows):
    return all(type(x) is int or x.denominator != 1 for row in rows for x in row)


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_rref_matches_reference(name, rows, ncols):
    got, pivots = rref(rows)
    expected, expected_pivots = reference_rref(rows)
    assert pivots == expected_pivots
    assert got == expected
    assert integral_entries_are_ints(got)


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_kernel_basis_matches_reference(name, rows, ncols):
    got = kernel_basis(rows, ncols)
    assert got == reference_kernel_basis(rows, ncols)
    assert integral_entries_are_ints(got)
    for v in got:
        assert all(not sum(a * x for a, x in zip(row, v)) for row in rows)
    if rows:
        assert kernel_basis(rows) == got


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_reduce_mod_rref_matches_reference(name, rows, ncols):
    rng = random.Random(name)
    ech = echelon_of(rows)
    ref_rows, ref_pivots = reference_rref(rows)
    assert len(ech) == len(ref_rows)
    assert sorted(ech.pivot_of) == ref_pivots
    for _ in range(5):
        vec = random_matrix(rng, 1, ncols, Fraction)[0]
        expected = sparse(reference_reduce_mod_rref(ref_rows, ref_pivots, vec))
        got = reduce_mod_rref(ech, dict(enumerate(vec)))
        assert got == expected
        assert not got.keys() & set(ech.pivot_of)
        assert all(type(x) is int or x.denominator != 1 for x in got.values())


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_membership_and_coordinates_match_reference(name, rows, ncols):
    rng = random.Random(name)
    ech = echelon_of(rows)
    ref_rows, ref_pivots = reference_rref(rows)
    # the stored rows are independent, so coordinates are unique
    assert len(reference_rref([[row.get(c, 0) for c in range(ncols)]
                               for row in ech.rows])[0]) == len(ech)
    for _ in range(5):
        weights = [rng.randint(-2, 2) for _ in rows]
        inside = [sum((w * row[c] for w, row in zip(weights, rows)), 0)
                  for c in range(ncols)]
        other = random_matrix(rng, 1, ncols, int)[0]
        for vec in (inside, other):
            in_span = not any(reference_reduce_mod_rref(ref_rows, ref_pivots, vec))
            assert (dict(enumerate(vec)) in ech) == in_span
            if not in_span:
                with pytest.raises(ValueError, match="not in the span"):
                    ech.coordinates(dict(enumerate(vec)))
                continue
            coords = ech.coordinates(dict(enumerate(vec)))
            assert all(coeff for coeff in coords.values())
            rebuilt = [sum((coeff * ech.rows[i].get(c, 0)
                            for i, coeff in coords.items()), 0)
                       for c in range(ncols)]
            assert rebuilt == vec
        assert dict(enumerate(inside)) in ech

