"""Exact linear algebra over the rationals.

Dense matrices are lists of row lists holding ints or Fractions; sparse
vectors are dicts keyed by arbitrary orderable labels.  Everything is
eliminated exactly -- no floating point.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .lincomb import accumulate


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


def rref(rows):
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


def reduce_mod_rref(rref_rows, pivots, vec):
    """Representative of ``vec`` modulo the row space: pivot coordinates
    are cleared."""
    v = list(map(Fraction, vec))
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def kernel_basis(mat, ncols=None):
    """Basis of the right kernel of a matrix (rows = equations)."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    if not mat:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    rows, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return basis


class SparseEchelon:
    """Growing echelon basis of sparse vectors keyed by orderable labels.

    Rows are stored reduced against each other with pivot coefficient 1;
    insertion order is kept so reduction coefficients can serve as
    coordinates of the spanned space.
    """

    def __init__(self):
        self.rows = []        # list of dict vectors
        self.pivot_of = []    # pivot key per row
        self._by_pivot = {}   # pivot key -> row index

    def __len__(self):
        return len(self.rows)

    def _reduce(self, vec, record=None):
        # Every stored row has its pivot as minimal key with coefficient 1,
        # so reducing at a key only disturbs larger keys: one ordered pass
        # over a lazy heap suffices.
        v = accumulate({}, vec.items())
        heap = list(v)
        heapq.heapify(heap)
        while heap:
            key = heapq.heappop(heap)
            idx = self._by_pivot.get(key)
            if idx is None or key not in v:
                continue
            coeff = v[key]
            if record is not None:
                record[idx] += coeff
            row = self.rows[idx]
            for k2 in row:
                if k2 not in v:
                    heapq.heappush(heap, k2)
            accumulate(v, row.items(), -coeff)
        return v

    def insert(self, vec):
        """Reduce ``vec`` against the basis and add the residual if it is
        nonzero.  Returns the new row index, or None if dependent."""
        v = self._reduce(vec)
        if not v:
            return None
        pivot = min(v)
        lead = v[pivot]
        # a unit pivot keeps an integral row integral
        v = accumulate({}, v.items(), lead if lead in (1, -1) else Fraction(1) / lead)
        # keep stored rows fully reduced against the new pivot
        for row in self.rows:
            if pivot in row:
                accumulate(row, v.items(), -row[pivot])
        self.rows.append(v)
        self.pivot_of.append(pivot)
        self._by_pivot[pivot] = len(self.rows) - 1
        return len(self.rows) - 1

    def __contains__(self, vec):
        return not self._reduce(vec)

    def coordinates(self, vec):
        """Coefficients of ``vec`` over the stored rows; raises if the
        vector lies outside the span."""
        record = [0] * len(self.rows)
        residue = self._reduce(vec, record)
        if residue:
            raise ValueError("vector is not in the span")
        return record
