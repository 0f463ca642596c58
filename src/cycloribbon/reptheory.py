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
from functools import lru_cache, reduce
from typing import NamedTuple

from .hopf import (
    _f_label_product,
    _r_label_to_sym,
    h_monomial,
    mr_product_R,
    split_ribbon,
    projective_simple_quotient,
    ncsf_product_R,
    schur_in_h,
    sym_h_product,
    sym_to_qmr,
)
from .lincomb import LinComb, MR_R, NCSF_R, SYM_H, accumulate
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
    is_colored_composition,
    is_cycloribbon,
    multipartitions,
    partitions,
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
    if len(char.t_values) == max(n - 1, 0):
        ds = {i for i, t in enumerate(char.t_values, start=1) if t == -1}
        rib = flip_ribbon(ColoredRibbon(composition_from_descents(n, ds),
                                        char.xi_colors))
        if is_cycloribbon(rib) and simple_character(rib) == char:
            return rib
    raise ValueError(f"{char} is the character of no simple")


def simple_labels(n: int, r: int) -> list:
    return enumerate_cycloribbons(n, r)


def projective_labels(n: int, r: int) -> list:
    return colored_compositions(n, r)


def induce_simples(a: ColoredRibbon, b: ColoredRibbon, *,
                   r: int = None) -> Counter:
    """Composition factors of the induction product of two simples, as a
    multiset of cycloribbons of total size; there are binomial(m+n, m)
    of them counted with multiplicity; a label that is not a cycloribbon
    raises ``ValueError``.  The product does not depend on the number of
    colors, so ``r`` is accepted and ignored."""
    for rib in (a, b):
        if not is_cycloribbon(rib):
            raise ValueError(f"{rib} is not a cycloribbon")
    return Counter(dict(_f_label_product(a, b)))


def restrict_simple(rib: ColoredRibbon, m: int) -> list:
    """Restriction of a simple to the parabolic with first block of size
    ``m``: the single split of the cycloribbon at that cell."""
    if not is_cycloribbon(rib):
        raise ValueError(f"{rib} is not a cycloribbon")
    return [split_ribbon(rib, m)]


def induce_projectives(a: ColoredComposition, b: ColoredComposition) -> Counter:
    """Indecomposable summands of the induction product of two
    projectives: the colored ribbon product rule on their labels; a label
    that is not a colored composition raises ``ValueError``."""
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
    if not is_colored_composition(cc):
        raise ValueError(f"{cc} is not a colored composition")
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


def _by_color(runs, r: int) -> tuple:
    """The multiset of runs of each color 1..r, as one sorted tuple each."""
    per_color = [[] for _ in range(r)]
    for color, run in runs:
        per_color[color - 1].append(run)
    return tuple(tuple(sorted(group)) for group in per_color)


def _ribbons_in_h(runs) -> LinComb:
    """One-color complete expansion of the product of the ordinary ribbon
    Schur functions of ``runs``, by the R-to-SYM label rule, so the labels
    built here are not checked again."""
    return reduce(sym_h_product, (LinComb(SYM_H, _r_label_to_sym(
        ColoredComposition(run, (1,) * len(run)))) for run in runs),
        LinComb.single(SYM_H, ()))


@lru_cache(maxsize=4)
def _column_side(n: int, r: int) -> tuple:
    """The columns of both matrices at (n, r), shared by them and mutated
    by no caller: the cycloribbons ``cols``; their keys as a trie over the
    colors, Y_1 -> ... -> Y_r -> column indices, with Y_c the multiset of
    runs of color c; and ``pairings``, which maps every one-color h_mu
    with |mu| <= n to {Y: <h_mu, B(Y)>}.  That pairing sums the one-color
    fundamental image of h_mu (its ``sym_to_qmr``) over the
    concatenate-or-glue expansion of B(Y)'s runs."""
    cols = tuple(simple_labels(n, r))
    trie, ys = {}, {}  # ys: one tuple per distinct Y, shared by the trie
    for j, rib in enumerate(cols):
        key = [ys.setdefault(y, y)
               for y in _by_color(color_runs(cell_composition(rib)), r)]
        node = trie
        for y in key[:-1]:
            node = node.setdefault(y, {})
        node.setdefault(key[-1], []).append(j)
    glued = {}     # size -> [(run multiset Y, ribbon expansion of B(Y))]
    for y in ys:
        b = reduce(ncsf_product_R, (LinComb.single(NCSF_R, run) for run in y),
                   LinComb.single(NCSF_R, ()))
        glued.setdefault(sum(map(sum, y)), []).append((y, b.terms))
    pairings = {}
    for size in range(n + 1):
        for lam in partitions(size):
            mono = h_monomial((1, d) for d in lam)
            image = {rib.shape: c for rib, c in
                     sym_to_qmr(LinComb.single(SYM_H, mono)).terms.items()}
            pairings[mono] = accumulate({}, (
                (y, sum(c * image.get(shape, 0) for shape, c in b.items()))
                for y, b in glued.get(size, ())))
    return cols, trie, pairings


def _fill(row: list, node: dict, factors: tuple, depth: int, value: int) -> None:
    """Walk the row's factor dicts down the column trie from ``node`` at
    color ``depth``, looking each key of the factor up in the node, and
    set each column reached to the product on the way down."""
    hits = [(node[y], v) for y, v in factors[depth].items() if y in node]
    if depth + 1 < len(factors):
        for child, v in hits:
            _fill(row, child, factors, depth + 1, value * v)
    else:
        for js, v in hits:
            v *= value
            for j in js:
                row[j] = v


def _matrix_by_colors(rows, row_key, row_factor, n: int, r: int) -> LabeledMatrix:
    """Matrix of the row labels against the cycloribbons of size n, with
    entry prod_c <A_c, B_c(col)> (see :func:`cartan_matrix`).

    ``row_key`` gives a row label one key X_c per color, and
    ``row_factor(X_c)`` the one-color complete expansion of A_c.  Each
    pairing is E·D in one color, <A, B> = sum_mu [h_mu]A * <h_mu, B>,
    against the pairings of the column side (:func:`_column_side`), which
    is built once per (n, r).  Each row factor {Y: <A(X_c), B(Y)>} is
    computed once per call and each row once per key, by walking its
    factors down the column trie (:func:`_fill`); equal rows share one
    tuple."""
    cols, trie, pairings = _column_side(n, r)
    factors = {}   # row key X_c -> {Y: <A(X_c), B(Y)>}

    def factor(x):
        if x not in factors:
            factors[x] = {}
            for mono, c in row_factor(x).terms.items():
                accumulate(factors[x], pairings[mono].items(), c)
        return factors[x]

    by_key, shared, entries = {}, {}, []
    for label in rows:
        key = row_key(label)
        if key not in by_key:
            row = [0] * len(cols)
            _fill(row, trie, tuple(map(factor, key)), 0, 1)
            row = tuple(row)
            by_key[key] = shared.setdefault(row, row)
        entries.append(by_key[key])
    return LabeledMatrix(tuple(rows), cols, tuple(entries))


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
    <A_c(cc), B_c(rib)>.  A row depends only on the runs of each color.

    Both matrices at (n, r) share one column side (:func:`_column_side`):
    the column keys (B_1, ..., B_r) as a trie over the colors and each
    <h_mu, B_c>; a row walks its r factors down that trie, so it visits
    only the columns whose every factor is nonzero."""
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
