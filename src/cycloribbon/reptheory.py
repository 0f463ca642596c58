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

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

from .hopf import (
    mr_product_R,
    mr_to_sym,
    split_ribbon,
    projective_simple_quotient,
    ncsf_product_R,
    qmr_product_F,
    schur_in_h,
    sym_h_product,
    sym_to_qmr,
)
from .lincomb import LinComb, MR_R, NCSF_R, QMR_F, SYM_H, accumulate
from .ribbons import (
    ColoredComposition,
    ColoredRibbon,
    anticycloribbon_to_colored_comp,
    cell_composition,
    color_runs,
    colored_compositions,
    composition_from_descents,
    descent_class_size,
    descent_set,
    enumerate_anticycloribbons,
    enumerate_cycloribbons,
    flip_ribbon,
    is_cycloribbon,
    multipartitions,
    ribbon_literal,
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
    """Inverse of :func:`simple_character`; a character of no simple
    raises ``ValueError``."""
    n = len(char.xi_colors)
    ds = {i for i, t in enumerate(char.t_values, start=1) if t == -1}
    rib = flip_ribbon(ColoredRibbon(composition_from_descents(n, ds),
                                    char.xi_colors))
    if not is_cycloribbon(rib) or simple_character(rib) != char:
        raise ValueError(f"{char} is the character of no simple")
    return rib


def simple_labels(n: int, r: int) -> list:
    return enumerate_cycloribbons(n, r)


def projective_labels(n: int, r: int) -> list:
    return colored_compositions(n, r)


def induce_simples(a: ColoredRibbon, b: ColoredRibbon, *,
                   r: int = None) -> Counter:
    """Composition factors of the induction product of two simples, as a
    multiset of cycloribbons of total size; there are binomial(m+n, m)
    of them counted with multiplicity.  The product does not depend on
    the number of colors, so ``r`` is accepted and ignored."""
    prod = qmr_product_F(LinComb.single(QMR_F, a), LinComb.single(QMR_F, b))
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
    for _, run in color_runs(cc):
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

    def to_json_dict(self, row_fmt) -> dict:
        return {"rows": [row_fmt(l) for l in self.row_labels],
                "cols": [ribbon_literal(l) for l in self.col_labels],
                "entries": [list(row) for row in self.entries]}

    def to_csv(self, row_fmt) -> str:
        lines = ["," + ",".join(ribbon_literal(l) for l in self.col_labels)]
        for label, row in zip(self.row_labels, self.entries):
            lines.append(row_fmt(label) + "," + ",".join(map(str, row)))
        return "\n".join(lines) + "\n"


def _by_color(runs, r: int) -> tuple:
    """The multiset of runs of each color 1..r, as one sorted tuple each."""
    per_color = [[] for _ in range(r)]
    for color, run in runs:
        per_color[color - 1].append(run)
    return tuple(tuple(sorted(group)) for group in per_color)


def _ribbons_in_h(runs) -> LinComb:
    """One-color complete expansion of the product of the ordinary ribbon
    Schur functions of ``runs``."""
    return reduce(sym_h_product, (mr_to_sym(LinComb.single(
        MR_R, ColoredComposition(run, (1,) * len(run)))) for run in runs),
        LinComb.single(SYM_H, ()))


def _matrix_by_colors(rows, row_key, row_factor, n: int, r: int) -> LabeledMatrix:
    """Matrix of the row labels against the cycloribbons of size n, with
    entry prod_c <A_c, B_c(col)> (see :func:`cartan_matrix`).

    ``row_key`` gives a row label one key X_c per color, and
    ``row_factor(X_c)`` the one-color complete expansion of A_c.  Each
    pairing is E·D in one color: <A, B> = sum_mu [h_mu]A * <h_mu, B>, and
    <h_mu, B> sums the one-color fundamental image of h_mu (its
    ``sym_to_qmr``) over the concatenate-or-glue expansion of B's runs.
    Each image, pairing vector and row factor is computed once per call,
    a row once per key, and equal rows share one tuple."""
    cols = simple_labels(n, r)
    members = {}   # one run multiset per color -> its column indices
    for j, rib in enumerate(cols):
        key = _by_color(color_runs(cell_composition(rib)), r)
        members.setdefault(key, []).append(j)
    glued = {}     # size -> [(run multiset Y, ribbon expansion of B(Y))]
    for y in {y for key in members for y in key}:
        b = reduce(ncsf_product_R, (LinComb.single(NCSF_R, run) for run in y),
                   LinComb.single(NCSF_R, ()))
        glued.setdefault(sum(map(sum, y)), []).append((y, b.terms))
    pairings = {}  # one-color monomial h_mu -> {Y: <h_mu, B(Y)>}
    factors = {}   # row key X_c -> {Y: <A(X_c), B(Y)>}

    def pairing(mono):
        if mono not in pairings:
            image = {rib.shape: c for rib, c in
                     sym_to_qmr(LinComb.single(SYM_H, mono)).terms.items()}
            pairings[mono] = accumulate({}, (
                (y, sum(c * image.get(shape, 0) for shape, c in b.items()))
                for y, b in glued.get(sum(d for _, d in mono), ())))
        return pairings[mono]

    def factor(x):
        if x not in factors:
            factors[x] = {}
            for mono, c in row_factor(x).terms.items():
                accumulate(factors[x], pairing(mono).items(), c)
        return factors[x]

    by_key, shared, entries = {}, {}, []
    for label in rows:
        key = row_key(label)
        if key not in by_key:
            row = [0] * len(cols)
            for combo in itertools.product(*(factor(x).items() for x in key)):
                js = members.get(tuple(y for y, _ in combo))
                if js:
                    value = math.prod(v for _, v in combo)
                    for j in js:
                        row[j] = value
            row = tuple(row)
            by_key[key] = shared.setdefault(row, row)
        entries.append(by_key[key])
    return LabeledMatrix(tuple(rows), tuple(cols), tuple(entries))


def cartan_matrix(n: int, r: int) -> LabeledMatrix:
    """Multiplicities of the simples in the projectives: rows are colored
    compositions, columns cycloribbons, entries the fundamental
    coefficients of the Cartan map on the ribbon basis.

    Computed color by color.  Let A_c(cc) be the product of the ordinary
    ribbon Schur functions r_I over the maximal one-color runs I of cc of
    color c, and B_c(rib) = A_c(cell_composition(rib)), keyed as the row
    of the projective with simple quotient rib: ``cell_composition``
    inverts :func:`projective_simple_quotient` on cycloribbons.  With <,>
    the Hall scalar product (zero unless the sizes agree),

        cartan(cc, rib) = prod_c <A_c(cc), B_c(rib)>.

    The commutative image of R_cc is the product over c of A_c(cc) in the
    c-th variable set, and the image of such a product in QMR shuffles one
    word per color.  A colored descent compares letters only between
    adjacent cells of the same color, so the coefficient of F_rib is a
    product over the colors; in color c it counts the words whose descents
    inside each run of color c are those of the run, with either step
    between runs, which is the one-color fundamental expansion of A_c
    summed over the concatenate-or-glue expansion of B_c(rib), i.e.
    <A_c(cc), B_c(rib)>.  A row depends only on the runs of each color."""
    return _matrix_by_colors(projective_labels(n, r),
                             lambda cc: _by_color(color_runs(cc), r),
                             _ribbons_in_h, n, r)


def decomposition_matrix(n: int, r: int) -> LabeledMatrix:
    """Images of Schur-function products on the fundamental basis: rows
    are r-tuples of partitions of total size n, columns cycloribbons.

    With B_c as in :func:`cartan_matrix`,

        decomp(lam, rib) = prod_c <s_{lam^(c)}, B_c(rib)>,

    for the same reason: the row is the product over c of the Schur
    function s_{lam^(c)} in the c-th variable set."""
    return _matrix_by_colors(multipartitions(n, r), lambda mp: mp,
                             schur_in_h, n, r)
