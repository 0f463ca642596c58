"""Simple and projective module bookkeeping.

Simple modules are one-dimensional and labelled by cycloribbons; the
character records the color of each ``xi`` eigenvalue and the 0/-1
eigenvalue of each Hecke generator.  Indecomposable projectives are
labelled by colored compositions (equivalently anticycloribbons, or,
through the flip involution, by the cycloribbon of their unique simple
quotient).

Induction products translate to products in the two Grothendieck rings:
fundamental functions for simples, colored ribbons for projectives.
The Cartan matrix tabulates the composite "commutative image then embed"
map on the ribbon basis; the decomposition matrix tabulates the image of
Schur-function products under the embedding.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .hopf import (
    _color_runs,
    mr_product_R,
    mr_to_sym,
    multipartition_class,
    split_ribbon,
    projective_fundamental_partner,
    qmr_product_F,
    sym_to_qmr,
)
from .lincomb import LinComb, MR_R, QMR_F, SYM_H
from .ribbons import (
    ColoredComposition,
    ColoredRibbon,
    anticycloribbon_to_colored_comp,
    colored_compositions,
    composition_from_descents,
    descent_class_size,
    descent_set,
    enumerate_anticycloribbons,
    enumerate_cycloribbons,
    flip_ribbon,
    is_cycloribbon,
    multipartitions,
)


class Character(NamedTuple):
    """Eigenvalue data of a one-dimensional module: the color index of
    each xi eigenvalue and the 0/-1 value of each Hecke generator."""

    xi_colors: tuple
    t_values: tuple


def simple_character(rib: ColoredRibbon) -> Character:
    """Character of the simple module of a cycloribbon: xi sees the cell
    colors, and a Hecke generator acts by -1 exactly on the descents of
    the flipped ribbon's shape."""
    if not is_cycloribbon(rib):
        raise ValueError(f"{rib} is not a cycloribbon")
    flipped_ds = descent_set(flip_ribbon(rib).shape)
    t = tuple(-1 if i in flipped_ds else 0 for i in range(1, len(rib.colors)))
    return Character(rib.colors, t)


def ribbon_from_character(char: Character) -> ColoredRibbon:
    """Inverse of :func:`simple_character`."""
    n = len(char.xi_colors)
    ds = {i for i, t in enumerate(char.t_values, start=1) if t == -1}
    return flip_ribbon(ColoredRibbon(composition_from_descents(n, ds),
                                     char.xi_colors))


def simple_labels(n: int, r: int) -> list:
    return enumerate_cycloribbons(n, r)


def projective_labels(n: int, r: int) -> list:
    return colored_compositions(n, r)


def projective_simple_quotient(cc: ColoredComposition) -> ColoredRibbon:
    """Cycloribbon labelling the unique simple quotient of a projective."""
    return projective_fundamental_partner(cc)


def induce_simples(a: ColoredRibbon, b: ColoredRibbon, *,
                   negate_colors: bool = False, r: int = None) -> Counter:
    """Composition factors of the induction product of two simples, as a
    multiset of cycloribbons of total size; there are binomial(m+n, m)
    of them counted with multiplicity."""
    prod = qmr_product_F(LinComb.single(QMR_F, a), LinComb.single(QMR_F, b),
                         negate_colors=negate_colors, r=r)
    return Counter(dict(prod.terms))


def restrict_simple(rib: ColoredRibbon, m: int) -> list:
    """Restriction of a simple to the parabolic with first block of size
    ``m``: the single split of the cycloribbon at that cell."""
    return [split_ribbon(rib, m)]


def induce_projectives(a: ColoredComposition, b: ColoredComposition) -> Counter:
    """Indecomposable summands of the induction product of two
    projectives: the colored ribbon product rule on their labels."""
    prod = mr_product_R(LinComb.single(MR_R, a), LinComb.single(MR_R, b))
    return Counter(dict(prod.terms))


def dim_projective(cc: ColoredComposition) -> int:
    """Dimension of an indecomposable projective: with maximal one-color
    runs of parts I_1, ..., I_k of sizes m_1, ..., m_k,

        n! / (m_1! ... m_k!) * descent_class_size(I_1) ... descent_class_size(I_k).

    Restricted to the colorless subalgebra H_n(0), the projective is the
    product of the ordinary ribbons of its runs (see :func:`mr_to_ncsf`),
    i.e. induced from the parabolic H_{m_1}(0) x ... x H_{m_k}(0).  The
    ribbon of a composition I is the projective of dimension
    ``descent_class_size(I)``, and induction multiplies dimensions by the
    parabolic index, the multinomial coefficient.

    >>> dim_projective(ColoredComposition((1, 2, 1), (2, 2, 1)))
    8
    """
    dim = math.factorial(cc.size)
    for _, run in _color_runs(cc):
        dim = dim // math.factorial(sum(run)) * descent_class_size(run)
    return dim


def induce_hecke_projective(shape, r: int) -> list:
    """Decomposition of the module induced from an indecomposable
    projective of the colorless subalgebra: one summand per
    anticycloribbon of the given shape, with its dimension."""
    out = []
    for rib in enumerate_anticycloribbons(sum(shape), r, shape=shape):
        cc = anticycloribbon_to_colored_comp(rib)
        out.append((cc, dim_projective(cc)))
    return out


# ---------------------------------------------------------------------------
# Cartan and decomposition matrices

@dataclass(frozen=True)
class LabeledMatrix:
    row_labels: tuple
    col_labels: tuple
    entries: tuple  # tuple of row tuples, exact ints

    def row_sums(self):
        return [sum(row) for row in self.entries]

    def to_json_dict(self, row_fmt, col_fmt) -> dict:
        return {"rows": [row_fmt(l) for l in self.row_labels],
                "cols": [col_fmt(l) for l in self.col_labels],
                "entries": [list(row) for row in self.entries]}

    def to_csv(self, row_fmt, col_fmt) -> str:
        lines = ["," + ",".join(col_fmt(l) for l in self.col_labels)]
        for label, row in zip(self.row_labels, self.entries):
            lines.append(row_fmt(label) + "," + ",".join(map(str, row)))
        return "\n".join(lines) + "\n"


def _as_int(x):
    if isinstance(x, int):
        return x
    if x.denominator != 1:
        raise ValueError(f"non-integral matrix entry {x}")
    return int(x)


def _matrix_through_sym(rows, to_sym, n: int, r: int,
                        row_key=lambda label: label) -> LabeledMatrix:
    """Matrix of ``sym_to_qmr . to_sym`` on the row labels against the
    cycloribbons of size n, as E·D: each row's monomial expansion E times
    the fundamental images D of the monomials, each computed once.  One
    label per ``row_key`` (which must fix the expansion) is expanded, and
    labels with one expansion share one row tuple."""
    cols = simple_labels(n, r)
    col_index = {lab: k for k, lab in enumerate(cols)}
    images = {}        # monomial -> ((column index, coeff), ...)
    by_expansion = {}  # expansion -> row tuple
    by_key = {}        # row key -> row tuple

    def row_of(expansion):
        frozen = frozenset(expansion.items())
        if frozen not in by_expansion:
            row = [0] * len(cols)
            for mono, c in expansion.items():
                image = images.get(mono)
                if image is None:
                    image = images[mono] = tuple(
                        (col_index[lab], _as_int(coeff)) for lab, coeff in
                        sym_to_qmr(LinComb.single(SYM_H, mono)).terms.items())
                c = _as_int(c)
                for k, coeff in image:
                    row[k] += c * coeff
            by_expansion[frozen] = tuple(row)
        return by_expansion[frozen]

    entries = []
    for label in rows:
        key = row_key(label)
        if key not in by_key:
            by_key[key] = row_of(to_sym(label).terms)
        entries.append(by_key[key])
    return LabeledMatrix(tuple(rows), tuple(cols), tuple(entries))


def cartan_matrix(n: int, r: int) -> LabeledMatrix:
    """Multiplicities of the simples in the projectives: rows are colored
    compositions, columns cycloribbons, entries the fundamental
    coefficients of the Cartan map on the ribbon basis.  A row depends
    only on the multiset of one-color runs of its label: the commutative
    image is a product over the runs."""
    return _matrix_through_sym(projective_labels(n, r),
                               lambda cc: mr_to_sym(LinComb.single(MR_R, cc)),
                               n, r, lambda cc: tuple(sorted(_color_runs(cc))))


def decomposition_matrix(n: int, r: int) -> LabeledMatrix:
    """Images of Schur-function products on the fundamental basis: rows
    are r-tuples of partitions of total size n, columns cycloribbons."""
    return _matrix_through_sym(multipartitions(n, r), multipartition_class, n, r)
