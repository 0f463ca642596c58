"""Products, coproducts and morphisms of the four graded algebras.

* ``MR``: the colored noncommutative symmetric functions, free on the
  complete generators (one per degree and color).  The complete basis
  ``S`` multiplies by concatenation of colored compositions; the colored
  ribbon basis ``R`` is defined by letting ``S`` be the sum of ``R`` over
  all anti-refinements, and multiplies by the concatenate-or-glue rule.
* ``QMR``: the colored quasi-symmetric functions spanned by the
  fundamental basis ``F`` indexed by cycloribbons.  The product
  interleaves the cells of the two labels and reads the descents of each
  interleaving off one table of steps (the colored descent compositions
  of the shifted shuffle of the class representatives); the coproduct
  deconcatenates the cells.
* ``Sym^(r)``: commutative polynomials in complete homogeneous functions
  of r independent variable sets.
* ``NCSF``: ordinary noncommutative symmetric functions in the ribbon
  basis (the one-color case of MR).

The maps between them: :func:`mr_to_ncsf` erases colors (restriction to
the colorless subalgebra), :func:`mr_to_sym` takes commutative images,
:func:`sym_to_qmr` embeds the commutative algebra into QMR, and
:func:`cartan_map` is their composite.  ``R`` and ``F`` are dual bases
up to the projective/simple relabeling, see :func:`duality_pairing`.

Coefficients stay exact throughout; the colored operations produce
integers, and rationals only appear transiently in Schur expansions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

from .lincomb import (
    LinComb,
    MR_R,
    MR_S,
    NCSF_R,
    QMR_F,
    SYM_H,
    TensorComb,
    accumulate,
)
from .ribbons import (
    ColoredComposition,
    ColoredRibbon,
    coarsenings,
    colored_comp_to_anticycloribbon,
    color_runs,
    composition_from_descents,
    descent_set,
    flip_ribbon,
    is_colored_composition,
    max_inversion_perm,
    validate_ribbon,
)

QMR_UNIT = ColoredRibbon((), ())


def anti_refinements(cc: ColoredComposition) -> list:
    """All colored compositions obtained from ``cc`` by adding up groups
    of consecutive parts of the same color (including ``cc`` itself)."""
    choices = [[(color, merged) for merged in coarsenings(subparts)]
               for color, subparts in color_runs(cc)]
    out = []
    for combo in itertools.product(*choices):
        parts, colors = [], []
        for color, merged in combo:
            parts.extend(merged)
            colors.extend([color] * len(merged))
        out.append(ColoredComposition(tuple(parts), tuple(colors)))
    return out


# ---------------------------------------------------------------------------
# every operation below is a rule on basis labels, extended (bi)linearly

def _linear(rule, a, source, target, or_basis=None):
    """Linear extension of ``rule``, which sends one label of basis
    ``source`` to ``(label, coeff)`` terms of basis ``target``; a pair of
    bases as target gives a tensor.  ``or_basis`` is a second basis the
    caller handles before, named in the error for any other basis."""
    _expect(a, source, or_basis)
    cls = TensorComb if isinstance(target, tuple) else LinComb
    return cls(target, [(lab, c * m) for key, c in a.terms.items()
                        for lab, m in rule(key)])


def _bilinear(rule, a, b, basis):
    """Bilinear extension of ``rule``, which sends a pair of labels of
    ``basis`` to ``(label, coeff)`` terms of the same basis."""
    _expect(a, basis), _expect(b, basis)
    return LinComb(basis, [(lab, ca * cb * m)
                           for x, ca in a.terms.items()
                           for y, cb in b.terms.items()
                           for lab, m in rule(x, y)])


# ---------------------------------------------------------------------------
# MR products and basis changes

def mr_product_S(a: LinComb, b: LinComb) -> LinComb:
    """Free product: concatenation of colored compositions."""
    return _bilinear(lambda x, y: ((ColoredComposition(
        x.parts + y.parts, x.colors + y.colors), 1),), a, b, MR_S)


def _ribbon_glue(x: ColoredComposition, y: ColoredComposition):
    concat = ColoredComposition(x.parts + y.parts, x.colors + y.colors), 1
    if x.parts and y.parts and x.colors[-1] == y.colors[0]:
        return concat, (ColoredComposition(
            x.parts[:-1] + (x.parts[-1] + y.parts[0],) + y.parts[1:],
            x.colors + y.colors[1:]), 1)
    return (concat,)


def mr_product_R(a: LinComb, b: LinComb) -> LinComb:
    """Colored ribbon product: concatenate, plus the glued term when the
    boundary colors agree."""
    return _bilinear(_ribbon_glue, a, b, MR_R)


def ncsf_product_R(a: LinComb, b: LinComb) -> LinComb:
    """Ordinary ribbon product (the one-color instance of the rule above)."""
    return _bilinear(lambda x, y: [(x + y, 1)] + (
        [(x[:-1] + (x[-1] + y[0],) + y[1:], 1)] if x and y else []), a, b, NCSF_R)


def s_to_r(a: LinComb) -> LinComb:
    """Expand complete labels as sums of ribbons over anti-refinements."""
    return _linear(lambda lab: [(fine, 1) for fine in anti_refinements(lab)],
                   a, MR_S, MR_R)


def _r_label_to_s(lab: ColoredComposition) -> list:
    return [(fine, (-1) ** (len(lab.parts) - len(fine.parts)))
            for fine in anti_refinements(lab)]


def r_to_s(a: LinComb) -> LinComb:
    """Inverse change of basis, by inclusion-exclusion over the same order."""
    return _linear(_r_label_to_s, a, MR_R, MR_S)


def _nonzero_parts(parts, colors) -> ColoredComposition:
    kept = [(p, c) for p, c in zip(parts, colors) if p]
    return ColoredComposition(tuple(p for p, _ in kept), tuple(c for _, c in kept))


def mr_coproduct(a: LinComb) -> TensorComb:
    """Coproduct of MR.  Each complete generator splits over its degree
    with the color kept, ``S^(c)_p -> sum_i S^(c)_i (x) S^(c)_{p-i}``, and
    the rule is extended multiplicatively: a complete label with parts
    p_1..p_k goes to one term per cut vector 0 <= i_j <= p_j, whose left
    label keeps the nonzero i_j and right label the nonzero p_j - i_j,
    each part with its color.  Ribbon input is taken to the complete
    basis, and each side of every term is expanded back into ribbons
    over its anti-refinements.

    >>> from .ribbons import colored_composition_literal as lit
    >>> for (l, m), c in mr_coproduct(
    ...         LinComb.single(MR_S, ColoredComposition((2,), (1,)))).sorted_terms():
    ...     print(c, lit(l) or "()", lit(m) or "()")
    1 () 2^1
    1 1^1 1^1
    1 2^1 ()
    """
    if a.basis == MR_R:
        return _linear(_r_label_coproduct, a, MR_R, (MR_R, MR_R))
    return _linear(_s_label_coproduct, a, MR_S, (MR_S, MR_S), MR_R)


def _s_label_coproduct(lab: ColoredComposition) -> list:
    return [((_nonzero_parts(cuts, lab.colors),
              _nonzero_parts([p - i for p, i in zip(lab.parts, cuts)], lab.colors)), 1)
            for cuts in itertools.product(*(range(p + 1) for p in lab.parts))]


@lru_cache(maxsize=4096)
def _r_label_coproduct(lab: ColoredComposition) -> tuple:
    """Terms of the coproduct of one ribbon label: its signed
    anti-refinements, their cut vectors summed in the complete basis, and
    each side expanded back over its anti-refinements."""
    in_s = TensorComb((MR_S, MR_S), [(pair, sign * c)
                                     for fine, sign in _r_label_to_s(lab)
                                     for pair, c in _s_label_coproduct(fine)])
    return tuple(_linear(lambda sides: [
        (pair, 1) for pair in itertools.product(*map(anti_refinements, sides))],
        in_s, (MR_S, MR_S), (MR_R, MR_R)).terms.items())


# ---------------------------------------------------------------------------
# QMR product and coproduct

@lru_cache(maxsize=4096)
def _f_label_product(x: ColoredRibbon, y: ColoredRibbon) -> tuple:
    m, size = len(x.colors), len(x.colors) + len(y.colors)
    if not size:
        return ((QMR_UNIT, 1),)
    colors = x.colors + y.colors
    keys = list(zip(colors, max_inversion_perm(x.shape)
                    + tuple(v + m for v in max_inversion_perm(y.shape))))
    # descent[i][j]: cell j right after cell i is a descent
    descent = [[a > b for b in keys] for a in keys]
    out, tail = {}, list(range(m, size))
    for slots in itertools.combinations(range(size), m):
        cells = tail[:]
        for k, slot in enumerate(slots):
            cells.insert(slot, k)
        parts, run, row = [], 1, descent[cells[0]]
        for cell in cells[1:]:
            if row[cell]:
                parts.append(run)
                run = 1
            else:
                run += 1
            row = descent[cell]
        parts.append(run)
        rib = tuple.__new__(ColoredRibbon, (tuple(parts),
                                            tuple(map(colors.__getitem__, cells))))
        out[rib] = out.get(rib, 0) + 1
    return tuple(out.items())


def qmr_product_F(a: LinComb, b: LinComb) -> LinComb:
    """Product of fundamental colored quasi-symmetric functions: the
    colored descent compositions of the shifted shuffle of the colored
    class representatives.  Its color convention is the one the
    structure-constant oracle pins (acceptance criterion 11).

    No shuffled word is built.  The representative of a label is the
    longest word of its shape's descent class, each letter colored by its
    cell, and the right factor's letters are shifted above the left's.
    So every cell has a key (color, letter), and in an interleaving of
    the cells, cell j right after cell i is a descent (the color drops,
    or it repeats and the letter drops) exactly when key i > key j.  The
    letters drop inside a label exactly at its descents, always from a
    right cell to a left cell, and never back.  One table of these steps
    serves every interleaving, and the interleavings are walked in the
    shuffle's slot order, so the terms come in the shuffle's order."""
    return _bilinear(_f_label_product, a, b, QMR_F)


def split_ribbon(rib: ColoredRibbon, k: int):
    """Cut a colored ribbon after cell ``k``; both halves keep their cells'
    colors and steps, so monotone fillings stay monotone."""
    n = len(rib.colors)
    if not 0 <= k <= n:
        raise ValueError(f"cut {k} outside 0..{n}")
    ds = descent_set(rib.shape)
    left = ColoredRibbon(composition_from_descents(k, {i for i in ds if i < k}),
                         rib.colors[:k])
    right = ColoredRibbon(composition_from_descents(
        n - k, {i - k for i in ds if i > k}), rib.colors[k:])
    return left, right


def qmr_coproduct_F(a: LinComb) -> TensorComb:
    """Deconcatenation coproduct on fundamental labels."""
    return _linear(lambda lab: [(split_ribbon(lab, k), 1)
                                for k in range(len(lab.colors) + 1)],
                   a, QMR_F, (QMR_F, QMR_F))


# ---------------------------------------------------------------------------
# duality between the ribbon and fundamental bases

def projective_simple_quotient(cc: ColoredComposition) -> ColoredRibbon:
    """Label of the simple quotient of the projective a colored
    composition indexes: flip the attached anticycloribbon.  The inverse
    is :func:`~cycloribbon.ribbons.cell_composition`."""
    return flip_ribbon(colored_comp_to_anticycloribbon(cc))


def duality_pairing(a: LinComb, f: LinComb):
    """Pairing making ``R`` and ``F`` dual bases up to the partner
    relabeling; labels of different grades pair to zero."""
    _expect(a, MR_R), _expect(f, QMR_F)
    total = 0
    for cc, ca in a.terms.items():
        cf = f.terms.get(projective_simple_quotient(cc))
        if cf:
            total += ca * cf
    return total


# ---------------------------------------------------------------------------
# the morphisms: color erasure, commutative image, embedding, Cartan map

def mr_to_ncsf(a: LinComb) -> LinComb:
    """Erase colors.  A complete label maps to the colorless complete
    function (sum of ribbons over coarsenings); a colored ribbon splits
    into its maximal one-color runs whose ordinary ribbons are multiplied
    out."""
    if a.basis == MR_R:
        return _linear(lambda lab: reduce(ncsf_product_R, (
            LinComb.single(NCSF_R, subparts) for _, subparts in color_runs(lab)),
            LinComb.single(NCSF_R, ())).terms.items(), a, MR_R, NCSF_R)
    return _linear(lambda lab: [(coarse, 1) for coarse in coarsenings(lab.parts)],
                   a, MR_S, NCSF_R, MR_R)


def h_monomial(pairs) -> tuple:
    """Canonical form of a commutative monomial in complete homogeneous
    functions: (color, degree) pairs sorted by color, then degree."""
    return tuple(sorted(pairs))


def mr_to_sym(a: LinComb) -> LinComb:
    """Commutative image: the complete generator of degree j and color i
    goes to the degree-j complete function of the i-th variable set."""
    if a.basis == MR_R:
        return _linear(lambda lab: [(h_monomial(zip(fine.colors, fine.parts)), sign)
                                    for fine, sign in _r_label_to_s(lab)],
                       a, MR_R, SYM_H)
    return _linear(lambda lab: ((h_monomial(zip(lab.colors, lab.parts)), 1),),
                   a, MR_S, SYM_H, MR_R)


def sym_to_qmr(a: LinComb) -> LinComb:
    """Embedding of the commutative algebra: each complete factor maps to
    the one-row constant-color fundamental function and the factors are
    multiplied out in QMR by the F label rule, so the labels built on the
    way are not checked again.  Monomial labels are already canonically
    sorted, and the QMR product is commutative, so this is well defined."""
    def rule(mono):
        terms = {QMR_UNIT: 1}
        for color, degree in mono:
            row = ColoredRibbon((degree,), (color,) * degree)
            terms = accumulate({}, ((lab, c * m) for x, c in terms.items()
                                    for lab, m in _f_label_product(x, row)))
        return terms.items()
    return _linear(rule, a, SYM_H, QMR_F)


def cartan_map(a: LinComb) -> LinComb:
    """Composite of the commutative image and the embedding into QMR."""
    return sym_to_qmr(mr_to_sym(a))


# ---------------------------------------------------------------------------
# Schur functions via Jacobi-Trudi

def sym_h_product(a: LinComb, b: LinComb) -> LinComb:
    return _bilinear(lambda x, y: ((h_monomial(x + y), 1),), a, b, SYM_H)


def schur_in_h(partition: tuple, color: int = 1) -> LinComb:
    """Expand a Schur function of one variable set as a polynomial in the
    complete functions, by the Jacobi-Trudi determinant det(h_{lambda_i - i
    + j}) over its nonzero terms: one column per row, chosen depth first in
    increasing order, so the terms come in the order of the permutations;
    a branch ends at its first negative degree.  Choosing the k-th smallest
    free column adds k inversions.

    >>> sorted(schur_in_h((1, 1)).terms.items())
    [(((1, 1), (1, 1)), 1), (((1, 2),), -1)]
    """
    ell = len(partition)
    terms = []

    def choose(i, free, degrees, sign):
        if i == ell:
            terms.append((h_monomial((color, d) for d in degrees if d), sign))
            return
        for k, j in enumerate(free):
            d = partition[i] - i + j
            if d >= 0:
                choose(i + 1, free[:k] + free[k + 1:], degrees + (d,),
                       -sign if k % 2 else sign)

    choose(0, tuple(range(ell)), (), 1)
    return LinComb(SYM_H, terms)


def multipartition_class(mp) -> LinComb:
    """Product of Schur functions, component i in the i-th variable set,
    expanded in complete-function monomials."""
    return reduce(sym_h_product, (schur_in_h(tuple(comp), color)
                                  for color, comp in enumerate(mp, start=1)),
                  LinComb.single(SYM_H, ()))


def _expect(a, basis, or_basis=None) -> None:
    """Reject a sum in a basis other than ``basis`` (or ``or_basis``), and
    an MR or QMR-F label that is malformed.  Only the input labels are
    checked: a rule's terms are never checked again."""
    if a.tag != basis:
        accepted = basis if or_basis is None else f"{basis} or {or_basis}"
        raise ValueError(f"expected basis {accepted}, got {a.tag}")
    if basis in (MR_S, MR_R):
        for cc in a.terms:
            if not is_colored_composition(cc):
                raise ValueError(f"{cc} is not a colored composition")
    elif basis == QMR_F:
        for rib in a.terms:
            validate_ribbon(rib)
