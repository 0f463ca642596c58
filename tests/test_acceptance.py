"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either pinned from a worked example
or recomputed here through an independent route.
"""

import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager

from cycloribbon import oracle
from cycloribbon.hopf import (
    duality_pairing,
    mr_coproduct,
    mr_product_R,
    mr_product_S,
    mr_to_ncsf,
    mr_to_sym,
    qmr_coproduct_F,
    qmr_product_F,
    r_to_s,
    s_to_r,
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
)
from cycloribbon.oracle import (
    AlgebraParams,
    check_socle,
    check_submodule_order,
    cross_check_induction,
    enumerate_one_dim_characters,
    verify_relations,
)
from cycloribbon.reptheory import (
    cartan_matrix,
    decomposition_matrix,
    dim_projective,
    induce_hecke_projective,
    induce_simples,
    projective_labels,
    simple_character,
)
from cycloribbon.ribbons import (
    ColoredComposition,
    ColoredRibbon,
    compositions,
    enumerate_cycloribbons,
    flip_ribbon,
    multipartitions,
)
from test_hopf import (
    colored_partitions,
    reference_tensor_pairing,
    tensor_multiply,
)
from test_oracle import negated_convention


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_cycloribbon_counts():
    with criterion(1, "cycloribbon count r(r+1)^(n-1), n<=8, r<=4"):
        for r in (1, 2, 3, 4):
            for n in range(1, 9):
                assert len(enumerate_cycloribbons(n, r)) == r * (r + 1) ** (n - 1)
        assert len(enumerate_cycloribbons(8, 4)) == 312500


def test_criterion_02_five_fillings():
    with criterion(2, "the five fillings of shape (2,1) with two colors"):
        got = enumerate_cycloribbons(3, 2, shape=(2, 1))
        assert [rib.colors for rib in got] == [
            (1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)]


def test_criterion_03_flip_involution():
    with criterion(3, "flip involution: pinned pair and exhaustive n<=6, r<=3"):
        rib = ColoredRibbon((3, 1, 1, 1, 4), (1, 1, 3, 3, 3, 2, 1, 1, 4, 5))
        assert flip_ribbon(rib) == ColoredRibbon((2, 1, 1, 4, 1, 1), rib.colors)
        for n in range(7):
            for r in (1, 2, 3):
                for shape in compositions(n):
                    for colors in itertools.product(range(1, r + 1), repeat=n):
                        rib = ColoredRibbon(shape, colors)
                        assert flip_ribbon(flip_ribbon(rib)) == rib


def test_criterion_04_induction_product_of_two_simples():
    with criterion(4, "pinned induction product of two simple modules"):
        got = induce_simples(ColoredRibbon((1, 1), (2, 1)),
                             ColoredRibbon((2,), (1, 2)))
        assert got == Counter({
            ColoredRibbon((1, 3), (2, 1, 1, 2)): 1,
            ColoredRibbon((1, 1, 2), (2, 1, 1, 2)): 1,
            ColoredRibbon((2, 2), (1, 2, 1, 2)): 1,
            ColoredRibbon((1, 2, 1), (2, 1, 2, 1)): 1,
            ColoredRibbon((3, 1), (1, 2, 2, 1)): 1,
            ColoredRibbon((2, 1, 1), (1, 2, 2, 1)): 1,
        })


def test_criterion_05_complete_expands_in_ribbons():
    with criterion(5, "pinned complete-to-ribbon expansion and its inverse"):
        label = ColoredComposition((2, 1, 2, 1, 3), (1, 2, 2, 1, 1))
        s = LinComb.single(MR_S, label)
        expansion = s_to_r(s)
        assert expansion == LinComb(MR_R, [
            (label, 1),
            (ColoredComposition((2, 3, 1, 3), (1, 2, 1, 1)), 1),
            (ColoredComposition((2, 1, 2, 4), (1, 2, 2, 1)), 1),
            (ColoredComposition((2, 3, 4), (1, 2, 1)), 1),
        ])
        assert r_to_s(expansion) == s


def test_criterion_06_restriction_to_colorless():
    with criterion(6, "pinned restriction of a projective to the colorless part"):
        got = mr_to_ncsf(LinComb.single(
            MR_R, ColoredComposition((2, 1, 2, 1, 3), (1, 2, 2, 1, 1))))
        assert got == LinComb(NCSF_R, [
            ((2, 1, 2, 1, 3), 1), ((2, 1, 3, 3), 1),
            ((3, 2, 1, 3), 1), ((3, 3, 3), 1)])


def test_criterion_07_inducing_a_colorless_projective():
    with criterion(7, "induced colorless projective of shape (2,1), two colors"):
        summands = induce_hecke_projective((2, 1), 2)
        assert len(summands) == 5
        assert sorted(d for _, d in summands) == [2, 2, 3, 3, 6]
        assert sum(d for _, d in summands) == 16


def test_criterion_08_dimension_identity():
    with criterion(8, "sum of projective dimensions is r^n n!, n<=5, r<=3"):
        for n in range(1, 6):
            for r in (1, 2, 3):
                total = sum(dim_projective(cc)
                            for cc in projective_labels(n, r))
                assert total == r ** n * math.factorial(n)


def test_criterion_09_relation_suite():
    with criterion(9, "defining relations on every basis element, two parameter sets"):
        count = 0
        for n in range(1, 6):
            for r in (1, 2, 3, 4):
                if r ** n * math.factorial(n) > 2000:
                    continue
                for u in (tuple(range(1, r + 1)),
                          tuple(2 ** k for k in range(1, r + 1))):
                    reports = verify_relations(AlgebraParams(n, r, u))
                    assert all(rep["pass"] for rep in reports)
                    count += 1
        assert count == 32  # 16 instances, two parameter vectors each


def test_criterion_10_character_census():
    with criterion(10, "one-dimensional character census equals the labels"):
        for n, r in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)]:
            census = set(enumerate_one_dim_characters(AlgebraParams(n, r)))
            assert len(census) == r * (r + 1) ** (n - 1)
            assert census == {simple_character(rib)
                              for rib in enumerate_cycloribbons(n, r)}


def test_criterion_11_oracle_arbitration(monkeypatch):
    with criterion(11, "explicit induction matches the combinatorial product"):
        report = cross_check_induction(2, 4)
        assert report["pass"] and report["cases"] == 136
        report = cross_check_induction(2, 5)
        assert report["pass"] and report["cases"] == 568
        report = cross_check_induction(3, 3)
        assert report["pass"] and report["cases"] == 81
        # the arbitration genuinely discriminates: the negated convention fails
        monkeypatch.setattr(oracle, "induce_simples", negated_convention(3))
        assert not cross_check_induction(3, 2)["pass"]


def _random_colored_comp(rng, n, r):
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return ColoredComposition(tuple(parts),
                              tuple(rng.randint(1, r) for _ in parts))


def test_criterion_12_hopf_property_suite():
    with criterion(12, "Hopf identities, 500 randomized cases each"):
        rng = random.Random(420)

        for _ in range(500):  # associativity of the ribbon product
            r = rng.randint(1, 3)
            x, y, z = (LinComb.single(MR_R, _random_colored_comp(
                rng, rng.randint(1, 5), r)) for _ in range(3))
            assert mr_product_R(mr_product_R(x, y), z) == \
                mr_product_R(x, mr_product_R(y, z))

        def triple(tc, side):
            out = {}
            for (l, m), c in tc.terms.items():
                inner = mr_coproduct(LinComb.single(MR_S, l if side == 0 else m))
                for (x, y), d in inner.terms.items():
                    key = (x, y, m) if side == 0 else (l, x, y)
                    out[key] = out.get(key, 0) + c * d
            return {k: v for k, v in out.items() if v}

        for _ in range(500):  # coassociativity
            r = rng.randint(1, 3)
            a = LinComb.single(MR_S, _random_colored_comp(
                rng, rng.randint(1, 5), r))
            tc = mr_coproduct(a)
            assert triple(tc, 0) == triple(tc, 1)

        for _ in range(500):  # the coproduct is multiplicative
            r = rng.randint(1, 3)
            m, n = rng.randint(1, 2), rng.randint(1, 3)
            a = LinComb.single(MR_S, _random_colored_comp(rng, m, r))
            b = LinComb.single(MR_S, _random_colored_comp(rng, n, r))
            assert mr_coproduct(mr_product_S(a, b)) == \
                tensor_multiply(mr_coproduct(a), mr_coproduct(b), mr_product_S)

        for _ in range(500):  # <ab, f> = <a (x) b, delta f>
            r = rng.randint(1, 3)
            m, n = rng.randint(1, 2), rng.randint(1, 3)
            a = _random_colored_comp(rng, m, r)
            b = _random_colored_comp(rng, n, r)
            f = rng.choice(enumerate_cycloribbons(m + n, r))
            lhs = duality_pairing(
                mr_product_R(LinComb.single(MR_R, a), LinComb.single(MR_R, b)),
                LinComb.single(QMR_F, f))
            rhs = reference_tensor_pairing(
                TensorComb((MR_R, MR_R), [((a, b), 1)]),
                qmr_coproduct_F(LinComb.single(QMR_F, f)))
            assert lhs == rhs

        for _ in range(500):  # <delta a, f (x) g> = <a, fg>
            r = rng.randint(1, 3)
            m, n = rng.randint(1, 2), rng.randint(1, 3)
            a = _random_colored_comp(rng, m + n, r)
            f = rng.choice(enumerate_cycloribbons(m, r))
            g = rng.choice(enumerate_cycloribbons(n, r))
            lhs = reference_tensor_pairing(
                mr_coproduct(LinComb.single(MR_R, a)),
                TensorComb((QMR_F, QMR_F), [((f, g), 1)]))
            rhs = duality_pairing(
                LinComb.single(MR_R, a),
                qmr_product_F(LinComb.single(QMR_F, f),
                              LinComb.single(QMR_F, g)))
            assert lhs == rhs


def test_criterion_13_cartan_consistency():
    with criterion(13, "Cartan rows, degree-one identity, literal factorization"):
        for r in (1, 2, 3):
            m = cartan_matrix(1, r)
            assert [list(row) for row in m.entries] == \
                [[int(i == j) for j in range(r)] for i in range(r)]
        for n in range(1, 5):
            for r in (1, 2):
                matrix = cartan_matrix(n, r)
                assert [sum(row) for row in matrix.entries] == \
                    [dim_projective(cc) for cc in matrix.row_labels]
                # literal factorization through the commutative algebra
                monomials = colored_partitions(n, r)
                mono_index = {mm: k for k, mm in enumerate(monomials)}
                col_index = {lab: k for k, lab in enumerate(matrix.col_labels)}
                e_mat = [[0] * len(monomials) for _ in matrix.row_labels]
                for i, cc in enumerate(matrix.row_labels):
                    image = mr_to_sym(LinComb.single(MR_R, cc))
                    for mono, coeff in image.terms.items():
                        e_mat[i][mono_index[mono]] = coeff
                d_mat = [[0] * len(matrix.col_labels) for _ in monomials]
                for k, mono in enumerate(monomials):
                    image = sym_to_qmr(LinComb.single(SYM_H, mono))
                    for lab, coeff in image.terms.items():
                        d_mat[k][col_index[lab]] = coeff
                product = [
                    [sum(e_mat[i][k] * d_mat[k][j]
                         for k in range(len(monomials)))
                     for j in range(len(matrix.col_labels))]
                    for i in range(len(matrix.row_labels))]
                assert [list(row) for row in matrix.entries] == product


def test_criterion_14_decomposition_matrix():
    with criterion(14, "decomposition entries nonnegative, pinned Schur image"):
        for n in range(1, 5):
            for r in (1, 2):
                matrix = decomposition_matrix(n, r)
                assert len(matrix.row_labels) == len(multipartitions(n, r))
                for row in matrix.entries:
                    assert all(isinstance(v, int) and v >= 0 for v in row)
        matrix = decomposition_matrix(2, 2)
        row = dict(zip(matrix.row_labels, matrix.entries))[((1, 1), ())]
        nonzero = {matrix.col_labels[j]: v for j, v in enumerate(row) if v}
        assert nonzero == {ColoredRibbon((1, 1), (1, 1)): 1}


def test_criterion_15_order_and_socle():
    with criterion(15, "submodule order and socle of the induced shape modules"):
        for n in range(1, 4):
            for r in (1, 2):
                params = AlgebraParams(n, r)
                for shape in compositions(n):
                    assert check_submodule_order(params, shape)["pass"]
                    assert check_socle(params, shape)["pass"]
