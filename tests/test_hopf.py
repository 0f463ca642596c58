"""Products, coproducts, basis changes and the morphisms between the
graded algebras, against pinned examples and randomized identities."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from cycloribbon import hopf
from cycloribbon.hopf import (
    anti_refinements,
    cartan_map,
    duality_pairing,
    h_monomial,
    mr_coproduct,
    mr_product_R,
    mr_product_S,
    mr_to_ncsf,
    mr_to_sym,
    multipartition_class,
    ncsf_product_R,
    qmr_coproduct_F,
    qmr_product_F,
    r_to_s,
    s_to_r,
    schur_in_h,
    split_ribbon,
    sym_h_product,
    sym_to_qmr,
)
from cycloribbon.lincomb import (
    LinComb,
    MR_R,
    MR_S,
    NCSF_R,
    QMR_F,
    SYM_H,
    TensorComb,
    accumulate,
)
from cycloribbon.ribbons import (
    ColoredComposition,
    ColoredPermutation,
    ColoredRibbon,
    colored_compositions,
    colored_descent_composition,
    compositions,
    enumerate_cycloribbons,
    max_inversion_perm,
    partitions,
    shifted_shuffle,
)
from test_ribbons import (
    all_colored_ribbons,
    reference_shifted_shuffle,
    value_colored,
)

S = lambda parts, colors, c=1: LinComb.single(
    MR_S, ColoredComposition(parts, colors), c)
R = lambda parts, colors, c=1: LinComb.single(
    MR_R, ColoredComposition(parts, colors), c)
F = lambda shape, colors, c=1: LinComb.single(
    QMR_F, ColoredRibbon(shape, colors), c)

rng = random.Random(20240)


def random_colored_comp(n, r):
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return ColoredComposition(tuple(parts),
                              tuple(rng.randint(1, r) for _ in parts))


def random_cycloribbon(n, r):
    return rng.choice(enumerate_cycloribbons(n, r))


# ---------------------------------------------------------------------------
# anti-refinement order

def test_anti_refinements_pinned():
    cc = ColoredComposition((2, 1, 2, 1, 3), (1, 2, 2, 1, 1))
    got = set(anti_refinements(cc))
    assert got == {
        cc,
        ColoredComposition((2, 3, 1, 3), (1, 2, 1, 1)),
        ColoredComposition((2, 1, 2, 4), (1, 2, 2, 1)),
        ColoredComposition((2, 3, 4), (1, 2, 1)),
    }


def test_anti_refinements_small():
    distinct = ColoredComposition((1, 2, 1), (1, 2, 3))
    assert anti_refinements(distinct) == [distinct]
    cc = ColoredComposition((1, 1), (2, 2))
    assert set(anti_refinements(cc)) == {cc, ColoredComposition((2,), (2,))}


# ---------------------------------------------------------------------------
# MR products

def test_product_S_is_concatenation():
    got = mr_product_S(S((2,), (1,)), S((1, 3), (2, 1)))
    assert got == S((2, 1, 3), (1, 2, 1))
    unit = S((), ())
    x = S((2, 1), (1, 1), 3)
    assert mr_product_S(unit, x) == x == mr_product_S(x, unit)
    two = S((1,), (1,)) + S((1,), (2,))
    got = mr_product_S(two, S((1,), (1,)))
    assert got == S((1, 1), (1, 1)) + S((1, 1), (2, 1))


def test_product_R_rule():
    assert mr_product_R(R((2,), (1,)), R((1,), (1,))) == \
        R((2, 1), (1, 1)) + R((3,), (1,))
    assert mr_product_R(R((2,), (1,)), R((1,), (2,))) == R((2, 1), (1, 2))


def test_product_R_associative_pinned_and_random():
    a, b, c = R((1,), (1,)), R((1,), (1,)), R((1,), (2,))
    assert mr_product_R(mr_product_R(a, b), c) == \
        mr_product_R(a, mr_product_R(b, c))
    for _ in range(200):
        r = rng.randint(1, 3)
        x = R(*random_colored_comp(rng.randint(1, 4), r))
        y = R(*random_colored_comp(rng.randint(1, 4), r))
        z = R(*random_colored_comp(rng.randint(1, 4), r))
        assert mr_product_R(mr_product_R(x, y), z) == \
            mr_product_R(x, mr_product_R(y, z))


# ---------------------------------------------------------------------------
# basis changes

def test_s_to_r_pinned():
    got = s_to_r(S((2, 1, 2, 1, 3), (1, 2, 2, 1, 1)))
    assert got == (R((2, 1, 2, 1, 3), (1, 2, 2, 1, 1))
                   + R((2, 3, 1, 3), (1, 2, 1, 1))
                   + R((2, 1, 2, 4), (1, 2, 2, 1))
                   + R((2, 3, 4), (1, 2, 1)))
    lone = S((1, 2, 1), (1, 2, 1))
    assert s_to_r(lone) == R((1, 2, 1), (1, 2, 1))


def test_basis_change_roundtrip():
    for n in range(5):
        for r in (1, 2, 3):
            for cc in colored_compositions(n, r):
                assert r_to_s(s_to_r(S(*cc))) == S(*cc)
                assert s_to_r(r_to_s(R(*cc))) == R(*cc)


def test_s_to_r_unitriangular():
    for cc in colored_compositions(4, 2):
        expansion = s_to_r(S(*cc))
        assert expansion.coefficient(cc) == 1
        for label, coeff in expansion.terms.items():
            assert coeff == 1
            assert len(label.parts) <= len(cc.parts)


# ---------------------------------------------------------------------------
# MR coproduct

def test_coproduct_of_generator():
    tc = mr_coproduct(S((2,), (1,)))
    unit = ColoredComposition((), ())
    assert tc.terms == {
        (unit, ColoredComposition((2,), (1,))): 1,
        (ColoredComposition((1,), (1,)), ColoredComposition((1,), (1,))): 1,
        (ColoredComposition((2,), (1,)), unit): 1,
    }


def test_primitive_generator():
    tc = mr_coproduct(S((1,), (3,)))
    unit = ColoredComposition((), ())
    lab = ColoredComposition((1,), (3,))
    assert tc.terms == {(unit, lab): 1, (lab, unit): 1}


def test_coproduct_is_algebra_morphism_pinned():
    a, b = S((1,), (1,)), S((1,), (2,))
    lhs = mr_coproduct(mr_product_S(a, b))
    rhs = tensor_multiply(mr_coproduct(a), mr_coproduct(b), mr_product_S)
    assert lhs == rhs
    assert len(lhs.terms) == 4


def test_coproduct_is_algebra_morphism_random():
    for _ in range(50):
        r = rng.randint(1, 3)
        a = S(*random_colored_comp(rng.randint(1, 3), r))
        b = S(*random_colored_comp(rng.randint(1, 3), r))
        assert mr_coproduct(mr_product_S(a, b)) == \
            tensor_multiply(mr_coproduct(a), mr_coproduct(b), mr_product_S)


def triple_left(tc):
    out = {}
    for (l, m), c in tc.terms.items():
        for (x, y), d in mr_coproduct(LinComb.single(MR_S, l)).terms.items():
            out[(x, y, m)] = out.get((x, y, m), 0) + c * d
    return {k: v for k, v in out.items() if v}


def triple_right(tc):
    out = {}
    for (l, m), c in tc.terms.items():
        for (x, y), d in mr_coproduct(LinComb.single(MR_S, m)).terms.items():
            out[(l, x, y)] = out.get((l, x, y), 0) + c * d
    return {k: v for k, v in out.items() if v}


def test_coproduct_coassociative():
    for _ in range(40):
        a = S(*random_colored_comp(rng.randint(1, 4), rng.randint(1, 3)))
        tc = mr_coproduct(a)
        assert triple_left(tc) == triple_right(tc)


def test_coproduct_on_ribbon_basis():
    unit = ColoredComposition((), ())
    for _ in range(20):
        cc = random_colored_comp(rng.randint(1, 3), 2)
        tc = mr_coproduct(R(*cc))
        # counit: the grade-(0, n) and (n, 0) components are the label itself
        left_unit = {m: c for (l, m), c in tc.terms.items() if l == unit}
        right_unit = {l: c for (l, m), c in tc.terms.items() if m == unit}
        assert left_unit == {cc: 1} and right_unit == {cc: 1}
        # grading splits correctly
        for (l, m), _ in tc.terms.items():
            assert sum(l.parts) + sum(m.parts) == cc.size


# the tensor route of the coproduct, kept as a reference for the label rule

MR_UNIT = ColoredComposition((), ())


def tensor_of(a: LinComb, b: LinComb) -> TensorComb:
    return TensorComb((a.basis, b.basis),
                      [((la, lb), ca * cb)
                       for la, ca in a.terms.items()
                       for lb, cb in b.terms.items()])


def tensor_multiply(t1: TensorComb, t2: TensorComb, mul) -> TensorComb:
    """Componentwise product of tensors, multiplying each side with ``mul``
    (a function of two single-label LinCombs)."""
    b1, b2 = t1.bases
    out = {}
    for (l1, m1), c1 in t1.terms.items():
        for (l2, m2), c2 in t2.terms.items():
            left = mul(LinComb.single(b1, l1), LinComb.single(b1, l2))
            right = mul(LinComb.single(b2, m1), LinComb.single(b2, m2))
            accumulate(out, tensor_of(left, right).terms.items(), c1 * c2)
    return TensorComb._wrap(t1.bases, out)


def tensor_map_sides(t, bases, fn_left, fn_right):
    """Apply LinComb->LinComb maps to the two sides of every term."""
    out = {}
    for (l, m), c in t.terms.items():
        left = fn_left(LinComb.single(t.bases[0], l))
        right = fn_right(LinComb.single(t.bases[1], m))
        accumulate(out, tensor_of(left, right).terms.items(), c)
    return TensorComb._wrap(tuple(bases), out)


def reference_mr_coproduct(a):
    """One tensor per part, multiplied out in MR (x) MR; ribbon input goes
    through the complete basis on both tensor factors."""
    if a.basis == MR_R:
        tc = reference_mr_coproduct(r_to_s(a))
        return tensor_map_sides(tc, (MR_R, MR_R), s_to_r, s_to_r)
    assert a.basis == MR_S
    out = {}
    for lab, coeff in a.terms.items():
        tc = tensor_of(LinComb.single(MR_S, MR_UNIT), LinComb.single(MR_S, MR_UNIT))
        for part, color in zip(lab.parts, lab.colors):
            halves = [ColoredComposition((i,), (color,)) if i else MR_UNIT
                      for i in range(part + 1)]
            split = TensorComb((MR_S, MR_S), [((halves[i], halves[part - i]), 1)
                                               for i in range(part + 1)])
            tc = tensor_multiply(tc, split, mr_product_S)
        accumulate(out, tc.terms.items(), coeff)
    return TensorComb((MR_S, MR_S), out)


def test_coproduct_equals_tensor_reference():
    checked = 0
    for n in range(6):
        for cc in colored_compositions(n, 3):
            for basis in (MR_S, MR_R):
                a = LinComb.single(basis, cc)
                got = mr_coproduct(a)
                assert got == reference_mr_coproduct(a), (basis, cc)
                assert got.bases == (basis, basis)
                checked += 1
    assert checked == 2048
    a = S((2, 1), (1, 2), 3) - S((1, 1, 1), (2, 2, 1), 2)
    assert mr_coproduct(a) == reference_mr_coproduct(a)
    assert mr_coproduct(s_to_r(a)) == reference_mr_coproduct(s_to_r(a))


def test_coproduct_uses_no_tensor_arithmetic(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("tensor arithmetic on the coproduct path")

    hopf._r_label_coproduct.cache_clear()
    monkeypatch.setattr(LinComb, "single", forbidden)
    monkeypatch.setattr(hopf, "mr_product_S", forbidden)
    cc = ColoredComposition((2, 1, 2), (1, 1, 2))
    for basis in (MR_S, MR_R):
        assert mr_coproduct(LinComb(basis, [(cc, 1)]))


def test_ribbon_coproduct_cached_per_label():
    cc = ColoredComposition((2, 1, 2), (1, 1, 2))
    hopf._r_label_coproduct.cache_clear()
    first = mr_coproduct(R(*cc))
    info = hopf._r_label_coproduct.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    assert mr_coproduct(R(*cc)) == first
    info = hopf._r_label_coproduct.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    other = R((1, 2), (2, 2), -3)
    assert mr_coproduct(R(*cc) + other) == first + mr_coproduct(other)


# ---------------------------------------------------------------------------
# QMR product

def test_induction_product_pinned():
    got = qmr_product_F(F((1, 1), (2, 1)), F((2,), (1, 2)))
    assert got == (F((1, 3), (2, 1, 1, 2)) + F((1, 1, 2), (2, 1, 1, 2))
                   + F((2, 2), (1, 2, 1, 2)) + F((1, 2, 1), (2, 1, 2, 1))
                   + F((3, 1), (1, 2, 2, 1)) + F((2, 1, 1), (1, 2, 2, 1)))


def test_two_letter_products():
    assert qmr_product_F(F((1,), (1,)), F((1,), (2,))) == \
        F((2,), (1, 2)) + F((1, 1), (2, 1))
    assert qmr_product_F(F((1,), (1,)), F((1,), (1,))) == \
        F((2,), (1, 1)) + F((1, 1), (1, 1))


def test_product_F_coefficient_sum():
    for _ in range(60):
        r = rng.randint(1, 3)
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        a = F(*random_cycloribbon(m, r))
        b = F(*random_cycloribbon(n, r))
        prod = qmr_product_F(a, b)
        assert sum(prod.terms.values()) == math.comb(m + n, m)
        assert all(c > 0 for c in prod.terms.values())
        assert all(len(lab.colors) == m + n for lab in prod.terms)


def test_product_F_commutative():
    for _ in range(60):
        r = rng.randint(1, 3)
        a = F(*random_cycloribbon(rng.randint(0, 3), r))
        b = F(*random_cycloribbon(rng.randint(0, 3), r))
        assert qmr_product_F(a, b) == qmr_product_F(b, a)


def simple_colored_perm(rib):
    """Shuffle representative of a cycloribbon: the longest permutation of
    the shape's descent class, each letter colored by the cell it sits
    in.  The word itself is shuffled, not its inverse: the resulting
    descent compositions then match the explicitly induced modules
    (checked by the oracle cross-check)."""
    return ColoredPermutation(max_inversion_perm(rib.shape), rib.colors)


def reference_shuffle_product(x, y):
    """The product of two F labels as one permutation word per shuffle:
    the shifted shuffle of the class representatives, then the colored
    descent composition of each word."""
    shuffles = shifted_shuffle(simple_colored_perm(x), simple_colored_perm(y))
    return tuple(accumulate({}, ((colored_descent_composition(w), 1)
                                 for w in shuffles)).items())


def reference_shuffle_rep(rib):
    """Value-colored shuffle representative: the word of
    ``simple_colored_perm(rib)`` with its colors indexed by value."""
    return value_colored(simple_colored_perm(rib))


def reference_f_label_product(x, y):
    """The product of two F labels through the value-colored shuffle."""
    out = {}
    for w in reference_shifted_shuffle(reference_shuffle_rep(x),
                                       reference_shuffle_rep(y)):
        lab = colored_descent_composition(w)
        out[lab] = out.get(lab, 0) + 1
    return tuple(out.items())


def test_f_label_product_matches_shuffle_references():
    labels = {n: enumerate_cycloribbons(n, 3) for n in range(6)}
    pairs = 0
    for m, n in itertools.product(range(6), repeat=2):
        if m + n > 5:
            continue
        for x in labels[m]:
            for y in labels[n]:
                got = hopf._f_label_product.__wrapped__(x, y)
                assert got == reference_shuffle_product(x, y)
                assert got == reference_f_label_product(x, y)
                pairs += 1
    assert pairs == 4_864
    unit = ColoredRibbon((), ())
    assert hopf._f_label_product.__wrapped__(unit, unit) == ((unit, 1),)


def test_f_label_product_matches_shuffle_on_any_filling():
    labels = {n: list(all_colored_ribbons(n, 3)) for n in range(5)}
    pairs = 0
    for m, n in itertools.product(range(5), repeat=2):
        if m + n > 4:
            continue
        for x in labels[m]:
            for y in labels[n]:
                assert hopf._f_label_product.__wrapped__(x, y) == \
                    reference_shuffle_product(x, y)
                pairs += 1
    assert pairs == 2_644


def test_f_label_product_matches_shuffle_at_size_nine():
    seeded = random.Random(9)

    def label(n):
        shape = seeded.choice(list(compositions(n)))
        return ColoredRibbon(shape, tuple(seeded.randint(1, 3) for _ in range(n)))

    for _ in range(200):
        m = seeded.randint(0, 9)
        x, y = label(m), label(9 - m)
        assert hopf._f_label_product.__wrapped__(x, y) == \
            reference_shuffle_product(x, y)


def test_product_builds_no_shuffled_words(monkeypatch):
    x = ColoredRibbon((2, 2), (1, 2, 1, 3))
    y = ColoredRibbon((1, 3, 1), (3, 1, 2, 2, 1))
    want = reference_shuffle_product(x, y)

    def forbidden(*args, **kwargs):
        raise AssertionError("shuffled word on the product path")

    for name in ("shifted_shuffle", "colored_descent_composition"):
        monkeypatch.setattr(hopf, name, forbidden, raising=False)
    hopf._f_label_product.cache_clear()
    assert hopf._f_label_product(x, y) == want
    assert sum(c for _, c in want) == math.comb(9, 4)


def test_product_F_associative_random():
    for _ in range(20):
        r = rng.randint(1, 2)
        a = F(*random_cycloribbon(rng.randint(1, 2), r))
        b = F(*random_cycloribbon(rng.randint(1, 2), r))
        c = F(*random_cycloribbon(rng.randint(1, 2), r))
        assert qmr_product_F(qmr_product_F(a, b), c) == \
            qmr_product_F(a, qmr_product_F(b, c))


# ---------------------------------------------------------------------------
# QMR coproduct and duality

def test_coproduct_F_deconcatenation():
    rib = ColoredRibbon((2,), (1, 2))
    tc = qmr_coproduct_F(F(*rib))
    unit = ColoredRibbon((), ())
    assert tc.terms == {
        (unit, rib): 1,
        (ColoredRibbon((1,), (1,)), ColoredRibbon((1,), (2,))): 1,
        (rib, unit): 1,
    }
    rib = ColoredRibbon((1, 1), (2, 1))
    tc = qmr_coproduct_F(F(*rib))
    assert tc.terms == {
        (unit, rib): 1,
        (ColoredRibbon((1,), (2,)), ColoredRibbon((1,), (1,))): 1,
        (rib, unit): 1,
    }


def test_split_parts_are_cycloribbons():
    from cycloribbon.ribbons import is_cycloribbon
    for _ in range(50):
        rib = random_cycloribbon(rng.randint(1, 5), 3)
        for k in range(len(rib.colors) + 1):
            left, right = split_ribbon(rib, k)
            assert is_cycloribbon(left) and is_cycloribbon(right)
            assert left.colors + right.colors == rib.colors


def test_pairing_examples():
    assert duality_pairing(R((3,), (2,)), F((3,), (2, 2, 2))) == 1
    # exactly one partner for a mixed label
    cc = ColoredComposition((1, 1), (1, 2))
    partners = [rib for rib in enumerate_cycloribbons(2, 2)
                if duality_pairing(R(*cc), F(*rib))]
    assert partners == [ColoredRibbon((2,), (1, 2))]
    assert duality_pairing(R((2,), (1,)), F((1, 1), (2, 1))) == 0


def test_pairing_matrix_is_permutation():
    ccs = colored_compositions(2, 2)
    ribs = enumerate_cycloribbons(2, 2)
    mat = [[duality_pairing(R(*cc), F(*rib)) for rib in ribs] for cc in ccs]
    assert sorted(map(sum, mat)) == [1] * 6
    assert sorted(sum(col) for col in zip(*mat)) == [1] * 6


def reference_tensor_pairing(ta, tf):
    """Factorwise :func:`duality_pairing` of MR (x) MR with QMR (x) QMR:
    a double loop over both tensors, pairing single labels."""
    total = 0
    for (a1, a2), ca in ta.terms.items():
        for (f1, f2), cf in tf.terms.items():
            p1 = duality_pairing(LinComb.single(MR_R, a1),
                                 LinComb.single(QMR_F, f1))
            if not p1:
                continue
            p2 = duality_pairing(LinComb.single(MR_R, a2),
                                 LinComb.single(QMR_F, f2))
            total += ca * cf * p1 * p2
    return total


# one sum in each basis, and each ring operation with the bases it
# accepts and its number of arguments
IN_BASIS = {MR_S: S((1,), (1,)), MR_R: R((1,), (1,)), QMR_F: F((1,), (1,)),
            SYM_H: LinComb.single(SYM_H, ((1, 1),)),
            NCSF_R: LinComb.single(NCSF_R, (1,))}
RING_OPERATIONS = [
    (mr_product_S, (MR_S,), 2), (mr_product_R, (MR_R,), 2),
    (ncsf_product_R, (NCSF_R,), 2), (qmr_product_F, (QMR_F,), 2),
    (sym_h_product, (SYM_H,), 2), (s_to_r, (MR_S,), 1), (r_to_s, (MR_R,), 1),
    (mr_coproduct, (MR_S, MR_R), 1), (qmr_coproduct_F, (QMR_F,), 1),
    (mr_to_ncsf, (MR_S, MR_R), 1), (mr_to_sym, (MR_S, MR_R), 1),
    (sym_to_qmr, (SYM_H,), 1), (cartan_map, (MR_S, MR_R), 1)]


@pytest.mark.parametrize("op, accepted, arity", RING_OPERATIONS,
                         ids=[op.__name__ for op, _, _ in RING_OPERATIONS])
def test_ring_operations_reject_other_bases(op, accepted, arity):
    """The error names every basis the operation accepts."""
    good = IN_BASIS[accepted[0]]
    op(*[good] * arity)
    for basis, wrong in IN_BASIS.items():
        if basis in accepted:
            continue
        message = f"expected basis {' or '.join(accepted)}, got {basis}"
        for k in range(arity):
            args = [good] * arity
            args[k] = wrong
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                op(*args)


# labels that break the colored-composition or ribbon rule, per basis
MALFORMED = {
    MR_S: [S((0,), (1,)), S((1,), ()), S((1,), (0,)), S((2, -1), (1, 1))],
    MR_R: [R((0,), (1,)), R((1,), ()), R((1,), (0,)), R((2, -1), (1, 1))],
    QMR_F: [F((1, 1), (1, 2, 3)), F((0, 1), (1,)), F((1,), (0,)),
            F((2,), (1,))]}


@pytest.mark.parametrize("op, accepted, arity", RING_OPERATIONS,
                         ids=[op.__name__ for op, _, _ in RING_OPERATIONS])
def test_ring_operations_check_every_input_label(op, accepted, arity):
    """Each argument in an MR or QMR-F basis is checked, alone or as one
    term of a sum with a well-formed label."""
    for basis in accepted:
        good = IN_BASIS[basis]
        for bad in MALFORMED.get(basis, ()):
            for k in range(arity):
                for wrong in (bad, good + bad):
                    args = [good] * arity
                    args[k] = wrong
                    with pytest.raises(ValueError, match=(
                            "not a (colored )?composition|non-positive color")):
                        op(*args)


def test_duality_product_vs_coproduct():
    for _ in range(80):
        r = rng.randint(1, 3)
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        a = random_colored_comp(m, r)
        b = random_colored_comp(n, r)
        f = random_cycloribbon(m + n, r)
        lhs = duality_pairing(mr_product_R(R(*a), R(*b)), F(*f))
        ta = TensorComb((MR_R, MR_R), [((a, b), 1)])
        rhs = reference_tensor_pairing(ta, qmr_coproduct_F(F(*f)))
        assert lhs == rhs


def test_duality_coproduct_vs_product():
    for _ in range(60):
        r = rng.randint(1, 3)
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        a = random_colored_comp(m + n, r)
        f = random_cycloribbon(m, r)
        g = random_cycloribbon(n, r)
        tf = TensorComb((QMR_F, QMR_F), [((f, g), 1)])
        lhs = reference_tensor_pairing(mr_coproduct(R(*a)), tf)
        rhs = duality_pairing(R(*a), qmr_product_F(F(*f), F(*g)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# color erasure

def test_color_erasure_pinned():
    got = mr_to_ncsf(R((2, 1, 2, 1, 3), (1, 2, 2, 1, 1)))
    expect = LinComb(NCSF_R, [((2, 1, 2, 1, 3), 1), ((2, 1, 3, 3), 1),
                              ((3, 2, 1, 3), 1), ((3, 3, 3), 1)])
    assert got == expect
    assert mr_to_ncsf(R((4,), (2,))) == LinComb.single(NCSF_R, (4,))


def test_color_erasure_two_routes():
    for _ in range(40):
        cc = random_colored_comp(rng.randint(1, 4), rng.randint(1, 3))
        via_s = mr_to_ncsf(r_to_s(R(*cc)))
        via_r = mr_to_ncsf(R(*cc))
        assert via_s == via_r
        # and on the complete basis the image is the colorless complete
        assert mr_to_ncsf(S(*cc)) == mr_to_ncsf(s_to_r(S(*cc)))


def test_ncsf_product():
    r1 = LinComb.single(NCSF_R, (2,))
    r2 = LinComb.single(NCSF_R, (1, 2))
    assert ncsf_product_R(r1, r2) == \
        LinComb(NCSF_R, [((2, 1, 2), 1), ((3, 2), 1)])


# ---------------------------------------------------------------------------
# commutative image, embedding, Cartan map

def test_commutative_image_pinned():
    assert mr_to_sym(S((3,), (2,))) == LinComb.single(SYM_H, ((2, 3),))
    assert sym_to_qmr(LinComb.single(SYM_H, ((2, 3),))) == F((3,), (2, 2, 2))


def test_monomials_sorted():
    assert h_monomial([(2, 1), (1, 3), (1, 1)]) == ((1, 1), (1, 3), (2, 1))
    got = mr_to_sym(S((1, 3), (2, 1)))
    assert got == LinComb.single(SYM_H, ((1, 3), (2, 1)))


def test_cartan_map_pinned():
    got = cartan_map(R((1, 1), (1, 2)))
    assert got == F((2,), (1, 2)) + F((1, 1), (2, 1))
    assert cartan_map(R((4,), (2,))) == F((4,), (2, 2, 2, 2))


def test_embedding_well_defined():
    # product of images does not depend on the order of the factors
    for _ in range(30):
        r = rng.randint(1, 3)
        factors = [(rng.randint(1, r), rng.randint(1, 3)) for _ in range(3)]
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert sym_to_qmr(LinComb.single(SYM_H, h_monomial(factors))) == \
            sym_to_qmr(LinComb.single(SYM_H, h_monomial(shuffled)))


def test_morphisms_multiplicative():
    for _ in range(30):
        r = rng.randint(1, 2)
        a = random_colored_comp(rng.randint(1, 2), r)
        b = random_colored_comp(rng.randint(1, 2), r)
        prod = mr_product_R(R(*a), R(*b))
        # color erasure
        lhs = mr_to_ncsf(prod)
        rhs = ncsf_product_R(mr_to_ncsf(R(*a)), mr_to_ncsf(R(*b)))
        assert lhs == rhs
        # commutative image
        assert mr_to_sym(prod) == sym_h_product(mr_to_sym(R(*a)), mr_to_sym(R(*b)))
        # Cartan map
        assert cartan_map(prod) == qmr_product_F(cartan_map(R(*a)),
                                                 cartan_map(R(*b)))


# ---------------------------------------------------------------------------
# Schur functions

def test_schur_pinned():
    assert schur_in_h((1, 1)) == LinComb(
        SYM_H, [(((1, 1), (1, 1)), 1), (((1, 2),), -1)])
    for n in range(1, 6):
        assert schur_in_h((n,)) == LinComb.single(SYM_H, ((1, n),))
    assert sym_to_qmr(schur_in_h((1, 1))) == F((1, 1), (1, 1))


def reference_schur_terms(partition: tuple, color: int) -> tuple:
    """The Jacobi-Trudi determinant summed over all permutations, the
    reference for the pruned depth-first expansion of ``schur_in_h``."""
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


@pytest.mark.parametrize("partition", [
    lam for n in range(9) for lam in partitions(n)] + [
    (2, 1, 0), (1, 2), (3, -1), (0,), ()])
def test_schur_terms_match_permutation_sum(partition):
    for color in (1, 2, 3):
        assert tuple(schur_in_h(partition, color).terms.items()) == \
            reference_schur_terms(partition, color)


def test_schur_in_h_returns_a_fresh_lincomb():
    first = schur_in_h((2, 1))
    expected = dict(first.terms)
    first.terms.clear()
    assert expected and schur_in_h((2, 1)).terms == expected


def hook_content_dimension(lam, m):
    """Independent evaluation of a Schur function at m variables set to 1."""
    if not lam:
        return Fraction(1)
    conj = [sum(1 for p in lam if p > i) for i in range(lam[0])]
    val = Fraction(1)
    for i, p in enumerate(lam):
        for j in range(p):
            hook = (p - j) + (conj[j] - i) - 1
            val *= Fraction(m + j - i, hook)
    return val


def eval_h_at_ones(lc, m):
    total = Fraction(0)
    for mono, coeff in lc.terms.items():
        val = Fraction(coeff)
        for _, d in mono:
            val *= math.comb(m + d - 1, d)
        total += val
    return total


def test_schur_against_principal_specialization():
    for n in range(1, 7):
        for lam in partitions(n):
            expansion = schur_in_h(lam)
            for m in (1, 2, 3):
                assert eval_h_at_ones(expansion, m) == \
                    hook_content_dimension(lam, m)


def test_multipartition_class():
    got = multipartition_class(((1, 1), ()))
    assert got == schur_in_h((1, 1), 1)
    got = multipartition_class(((1,), (1,)))
    assert got == LinComb.single(SYM_H, ((1, 1), (2, 1)))


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


def test_colored_partitions():
    labels = colored_partitions(2, 2)
    assert len(labels) == 5
    assert all(sum(d for _, d in lab) == 2 for lab in labels)
    assert len(colored_partitions(4, 2)) == len(
        {m for cc in colored_compositions(4, 2)
         for m in mr_to_sym(S(*cc)).terms})
