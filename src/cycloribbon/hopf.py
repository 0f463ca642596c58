"""Products, coproducts and morphisms of the four graded algebras.

* ``MR``: the colored noncommutative symmetric functions, free on the
  complete generators (one per degree and color).  The complete basis
  ``S`` multiplies by concatenation of colored compositions; the colored
  ribbon basis ``R`` is defined by letting ``S`` be the sum of ``R`` over
  all anti-refinements, and multiplies by the concatenate-or-glue rule.
* ``QMR``: the colored quasi-symmetric functions spanned by the
  fundamental basis ``F`` indexed by cycloribbons.  The product shuffles
  colored class representatives and takes colored descent compositions;
  the coproduct deconcatenates the cells.
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
from functools import lru_cache

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
    ColoredPermutation,
    ColoredRibbon,
    coarsenings,
    colored_comp_to_anticycloribbon,
    colored_descent_composition,
    composition_from_descents,
    descent_set,
    flip_ribbon,
    inverse_colored_perm,
    max_inversion_perm,
    partitions,
    shifted_shuffle,
)

QMR_UNIT = ColoredRibbon((), ())


def anti_refinements(cc: ColoredComposition) -> list:
    """All colored compositions obtained from ``cc`` by adding up groups
    of consecutive parts of the same color (including ``cc`` itself)."""
    choices = [[(color, merged) for merged in coarsenings(subparts)]
               for color, subparts in _color_runs(cc)]
    out = []
    for combo in itertools.product(*choices):
        parts, colors = [], []
        for color, merged in combo:
            parts.extend(merged)
            colors.extend([color] * len(merged))
        out.append(ColoredComposition(tuple(parts), tuple(colors)))
    return out


# ---------------------------------------------------------------------------
# MR products and basis changes

def mr_product_S(a: LinComb, b: LinComb) -> LinComb:
    """Free product: concatenation of colored compositions."""
    _expect(a, MR_S), _expect(b, MR_S)
    return LinComb(MR_S, [(ColoredComposition(x.parts + y.parts,
                                              x.colors + y.colors), ca * cb)
                          for x, ca in a.terms.items()
                          for y, cb in b.terms.items()])


def _ribbon_glue(x: ColoredComposition, y: ColoredComposition):
    concat = ColoredComposition(x.parts + y.parts, x.colors + y.colors)
    if x.parts and y.parts and x.colors[-1] == y.colors[0]:
        glued = ColoredComposition(
            x.parts[:-1] + (x.parts[-1] + y.parts[0],) + y.parts[1:],
            x.colors + y.colors[1:])
        return concat, glued
    return (concat,)


def mr_product_R(a: LinComb, b: LinComb) -> LinComb:
    """Colored ribbon product: concatenate, plus the glued term when the
    boundary colors agree."""
    _expect(a, MR_R), _expect(b, MR_R)
    terms = []
    for x, ca in a.terms.items():
        for y, cb in b.terms.items():
            for lab in _ribbon_glue(x, y):
                terms.append((lab, ca * cb))
    return LinComb(MR_R, terms)


def ncsf_product_R(a: LinComb, b: LinComb) -> LinComb:
    """Ordinary ribbon product (the one-color instance of the rule above)."""
    _expect(a, NCSF_R), _expect(b, NCSF_R)
    terms = []
    for x, ca in a.terms.items():
        for y, cb in b.terms.items():
            terms.append((x + y, ca * cb))
            if x and y:
                terms.append((x[:-1] + (x[-1] + y[0],) + y[1:], ca * cb))
    return LinComb(NCSF_R, terms)


def s_to_r(a: LinComb) -> LinComb:
    """Expand complete labels as sums of ribbons over anti-refinements."""
    _expect(a, MR_S)
    return LinComb(MR_R, [(fine, c)
                          for lab, c in a.terms.items()
                          for fine in anti_refinements(lab)])


def r_to_s(a: LinComb) -> LinComb:
    """Inverse change of basis, by inclusion-exclusion over the same order."""
    _expect(a, MR_R)
    return LinComb(MR_S, [(fine, c * (-1) ** (len(lab.parts) - len(fine.parts)))
                          for lab, c in a.terms.items()
                          for fine in anti_refinements(lab)])


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
        return TensorComb((MR_R, MR_R), (
            (pair, c) for (l, m), c in mr_coproduct(r_to_s(a)).terms.items()
            for pair in itertools.product(anti_refinements(l), anti_refinements(m))))
    _expect(a, MR_S)
    return TensorComb((MR_S, MR_S), (
        ((_nonzero_parts(cuts, lab.colors),
          _nonzero_parts([p - i for p, i in zip(lab.parts, cuts)], lab.colors)), c)
        for lab, c in a.terms.items()
        for cuts in itertools.product(*(range(p + 1) for p in lab.parts))))


# ---------------------------------------------------------------------------
# QMR product and coproduct

def simple_colored_perm(rib: ColoredRibbon) -> ColoredPermutation:
    """Position-colored permutation attached to a cycloribbon: the longest
    permutation of the shape's descent class, colored by the cell colors."""
    return ColoredPermutation(max_inversion_perm(rib.shape), rib.colors)


def _shuffle_rep(rib: ColoredRibbon, r: int, negate: bool) -> ColoredPermutation:
    """Value-colored shuffle representative of a cycloribbon: the class
    representative's word with each letter carrying the color of the cell
    it occupies.  The word itself is shuffled, not its inverse: the
    resulting descent compositions then match the explicitly induced
    modules (checked by the oracle cross-check, which also rules out
    negating the colors)."""
    p = simple_colored_perm(rib)
    q = inverse_colored_perm(p, r=r, negate=negate)
    return ColoredPermutation(p.word, q.colors)


@lru_cache(maxsize=4096)
def _f_label_product(x: ColoredRibbon, y: ColoredRibbon, r: int, negate: bool):
    p = _shuffle_rep(x, r, negate)
    q = _shuffle_rep(y, r, negate)
    out = {}
    for w in shifted_shuffle(p, q):
        lab = colored_descent_composition(w)
        out[lab] = out.get(lab, 0) + 1
    return tuple(out.items())


def qmr_product_F(a: LinComb, b: LinComb, *, negate_colors: bool = False,
                  r: int = None) -> LinComb:
    """Product of fundamental colored quasi-symmetric functions: shifted
    shuffle of the colored class representatives, then colored descent
    compositions.  ``negate_colors`` switches to the convention where
    colors are inverted in the cyclic group on {1, ..., r} (``r`` defaults
    to the largest color in sight); the plain default is the convention
    pinned by the structure-constant oracle.  Without negation ``r`` does
    not change the product and is left out of the cache key."""
    _expect(a, QMR_F), _expect(b, QMR_F)
    terms = []
    for x, ca in a.terms.items():
        for y, cb in b.terms.items():
            span = None
            if negate_colors:
                span = r if r is not None else max(
                    max(x.colors, default=1), max(y.colors, default=1))
            for lab, mult in _f_label_product(x, y, span, negate_colors):
                terms.append((lab, ca * cb * mult))
    return LinComb(QMR_F, terms)


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
    _expect(a, QMR_F)
    terms = []
    for lab, c in a.terms.items():
        for k in range(len(lab.colors) + 1):
            terms.append((split_ribbon(lab, k), c))
    return TensorComb((QMR_F, QMR_F), terms)


# ---------------------------------------------------------------------------
# duality between the ribbon and fundamental bases

def projective_fundamental_partner(cc: ColoredComposition) -> ColoredRibbon:
    """Cycloribbon pairing with a colored composition: flip the attached
    anticycloribbon.  This is the label of the simple quotient of the
    projective module the colored composition indexes."""
    return flip_ribbon(colored_comp_to_anticycloribbon(cc))


def duality_pairing(a: LinComb, f: LinComb):
    """Pairing making ``R`` and ``F`` dual bases up to the partner
    relabeling; labels of different grades pair to zero."""
    _expect(a, MR_R), _expect(f, QMR_F)
    total = 0
    for cc, ca in a.terms.items():
        cf = f.terms.get(projective_fundamental_partner(cc))
        if cf:
            total += ca * cf
    return total


def tensor_pairing(ta: TensorComb, tf: TensorComb):
    """Factorwise extension of :func:`duality_pairing` to tensors."""
    _expect(ta, (MR_R, MR_R)), _expect(tf, (QMR_F, QMR_F))
    partner = projective_fundamental_partner
    return sum(c * tf.terms.get((partner(a1), partner(a2)), 0)
               for (a1, a2), c in ta.terms.items())


# ---------------------------------------------------------------------------
# the morphisms: color erasure, commutative image, embedding, Cartan map

def _color_runs(cc: ColoredComposition):
    return [(color, tuple(p for p, _ in grp))
            for color, grp in itertools.groupby(
                zip(cc.parts, cc.colors), key=lambda pc: pc[1])]


def mr_to_ncsf(a: LinComb) -> LinComb:
    """Erase colors.  A complete label maps to the colorless complete
    function (sum of ribbons over coarsenings); a colored ribbon splits
    into its maximal one-color runs whose ordinary ribbons are multiplied
    out."""
    if a.basis == MR_S:
        return LinComb(NCSF_R, [(coarse, c)
                                for lab, c in a.terms.items()
                                for coarse in coarsenings(lab.parts)])
    _expect(a, MR_R)
    out = {}
    for lab, c in a.terms.items():
        acc = LinComb.single(NCSF_R, ())
        for _, subparts in _color_runs(lab):
            acc = ncsf_product_R(acc, LinComb.single(NCSF_R, subparts))
        accumulate(out, acc.terms.items(), c)
    return LinComb(NCSF_R, out)


def h_monomial(pairs) -> tuple:
    """Canonical form of a commutative monomial in complete homogeneous
    functions: (color, degree) pairs sorted by color, then degree."""
    return tuple(sorted(pairs))


def mr_to_sym(a: LinComb) -> LinComb:
    """Commutative image: the complete generator of degree j and color i
    goes to the degree-j complete function of the i-th variable set."""
    if a.basis == MR_R:
        return mr_to_sym(r_to_s(a))
    _expect(a, MR_S)
    return LinComb(SYM_H, [(h_monomial(zip(lab.colors, lab.parts)), c)
                           for lab, c in a.terms.items()])


def sym_to_qmr(a: LinComb) -> LinComb:
    """Embedding of the commutative algebra: each complete factor maps to
    the one-row constant-color fundamental function and the factors are
    multiplied out in QMR.  Monomial labels are already canonically
    sorted, and the QMR product is commutative, so this is well defined."""
    _expect(a, SYM_H)
    out = {}
    for mono, c in a.terms.items():
        acc = LinComb.single(QMR_F, QMR_UNIT)
        for color, degree in mono:
            acc = qmr_product_F(acc, LinComb.single(
                QMR_F, ColoredRibbon((degree,), (color,) * degree)))
        accumulate(out, acc.terms.items(), c)
    return LinComb(QMR_F, out)


def cartan_map(a: LinComb) -> LinComb:
    """Composite of the commutative image and the embedding into QMR."""
    return sym_to_qmr(mr_to_sym(a))


# ---------------------------------------------------------------------------
# Schur functions via Jacobi-Trudi

def sym_h_product(a: LinComb, b: LinComb) -> LinComb:
    _expect(a, SYM_H), _expect(b, SYM_H)
    return LinComb(SYM_H, [(h_monomial(x + y), ca * cb)
                           for x, ca in a.terms.items()
                           for y, cb in b.terms.items()])


def schur_in_h(partition: tuple, color: int = 1) -> LinComb:
    """Expand a Schur function of one variable set as a polynomial in the
    complete functions, by the Jacobi-Trudi determinant.

    >>> sorted(schur_in_h((1, 1)).terms.items())
    [(((1, 1), (1, 1)), 1), (((1, 2),), -1)]
    """
    return LinComb(SYM_H, _schur_terms(partition, color))


@lru_cache(maxsize=256)
def _schur_terms(partition: tuple, color: int) -> tuple:
    ell = len(partition)
    terms = []
    for perm in itertools.permutations(range(ell)):
        sign = 1
        for i, j in itertools.combinations(range(ell), 2):
            if perm[i] > perm[j]:
                sign = -sign
        degrees = []
        for i in range(ell):
            d = partition[i] - i + perm[i]
            if d < 0:
                break
            if d > 0:
                degrees.append(d)
        else:
            terms.append((h_monomial((color, d) for d in degrees), sign))
    return tuple(accumulate({}, terms).items())


def multipartition_class(mp) -> LinComb:
    """Product of Schur functions, component i in the i-th variable set,
    expanded in complete-function monomials."""
    out = LinComb.single(SYM_H, ())
    for color, comp in enumerate(mp, start=1):
        out = sym_h_product(out, schur_in_h(tuple(comp), color))
    return out


def colored_partitions(n: int, r: int) -> list:
    """All degree-n monomial labels in the complete functions of r sets."""
    out = []
    for lam in partitions(n):
        groups = [(val, sum(1 for _ in grp))
                  for val, grp in itertools.groupby(lam)]
        for assignment in itertools.product(
                *[itertools.combinations_with_replacement(range(1, r + 1), k)
                  for _, k in groups]):
            pairs = []
            for (val, _), colors in zip(groups, assignment):
                pairs.extend((c, val) for c in colors)
            out.append(h_monomial(pairs))
    return sorted(set(out), key=lambda m: (sum(d for _, d in m), m))


def _expect(a, basis) -> None:
    if a.tag != basis:
        raise ValueError(f"expected basis {basis}, got {a.tag}")
