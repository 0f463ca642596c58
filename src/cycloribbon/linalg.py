"""Exact linear algebra over the rationals.

Sparse vectors are dicts keyed by orderable labels, dense matrices lists
of row lists; entries are ints, or Fractions when not integral.  There
is one eliminator, :class:`SparseEchelon`, exact with no floating point;
``rref``, ``reduce_mod_rref`` and ``kernel_basis`` are views of it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .lincomb import accumulate


def rref(rows):
    """Reduced row echelon form of a dense matrix: the rows of its
    :class:`SparseEchelon` in pivot order, as dense lists, and their
    pivot column indices."""
    ncols = len(rows[0]) if rows else 0
    ech = SparseEchelon()
    for row in rows:
        ech.insert(dict(enumerate(row)))
    order = sorted(range(len(ech)), key=ech.pivot_of.__getitem__)
    return ([[ech.rows[i].get(c, 0) for c in range(ncols)] for i in order],
            [ech.pivot_of[i] for i in order])


def reduce_mod_rref(echelon, vec):
    """Representative of the dict vector ``vec`` modulo the span of a
    :class:`SparseEchelon`: its pivot coordinates are cleared."""
    return echelon._reduce(vec)


def kernel_basis(mat, ncols=None):
    """Basis of the right kernel of a matrix (rows = equations)."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    rows, pivots = rref(mat)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = 1
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
        # over a lazy heap suffices, and reaches each pivot at most once.
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
                record[idx] = coeff
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
        """Coefficients of ``vec`` over the stored rows, as a dict keyed
        by row index; raises if the vector lies outside the span."""
        record = {}
        residue = self._reduce(vec, record)
        if residue:
            raise ValueError("vector is not in the span")
        return record
