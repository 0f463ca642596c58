from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cycloribbon.lincomb import (
    BASES,
    LinComb,
    MR_R,
    MR_S,
    NCSF_R,
    QMR_F,
    SYM_H,
    TensorComb,
    label_sort_key,
)
from cycloribbon.ribbons import ColoredComposition
from test_ribbons import PROPERTY, random_colored_compositions, random_ribbons

CC1 = ColoredComposition((2, 1), (1, 2))
CC2 = ColoredComposition((3,), (1,))


def test_zero_terms_dropped():
    lc = LinComb(MR_R, [(CC1, 1), (CC1, -1), (CC2, 2)])
    assert lc.terms == {CC2: 2}
    assert not LinComb(MR_R, [(CC1, 0)])


def test_arithmetic():
    a = LinComb.single(MR_R, CC1, 2)
    b = LinComb.single(MR_R, CC2, Fraction(1, 2))
    s = a + b
    assert s.coefficient(CC1) == 2 and s.coefficient(CC2) == Fraction(1, 2)
    assert (s - a) == b
    assert (2 * b).coefficient(CC2) == 1
    assert isinstance((2 * b).coefficient(CC2), int)
    assert (-a).coefficient(CC1) == -2


def test_basis_mismatch_rejected():
    with pytest.raises(ValueError):
        LinComb.single(MR_R, CC1) + LinComb.single(MR_S, CC1)
    with pytest.raises(ValueError):
        LinComb("nope", [])


def test_sorted_terms_are_canonical():
    a = LinComb(MR_R, [(CC2, 1), (CC1, 1)])
    labels = [l for l, _ in a.sorted_terms()]
    assert labels == [CC2, CC1]  # one-part label sorts before the split one


# random labels of every basis; a basis without a source fails by KeyError
RANDOM_LABELS = {
    MR_S: random_colored_compositions(),
    MR_R: random_colored_compositions(),
    QMR_F: random_ribbons(),
    SYM_H: st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6)),
                    max_size=4).map(lambda pairs: tuple(sorted(pairs))),
    NCSF_R: st.lists(st.integers(1, 6), max_size=5).map(tuple),
}


@pytest.mark.parametrize("basis", BASES)
@PROPERTY
@given(data=st.data())
def test_sorted_terms_follow_the_sort_key(basis, data):
    # distinct labels get distinct keys, so the order of the terms does
    # not depend on the order in which the sum was built
    pairs = data.draw(st.lists(st.tuples(
        RANDOM_LABELS[basis], st.fractions(-20, 20, max_denominator=12)), max_size=6))
    x = LinComb(basis, pairs)
    keys = [label_sort_key(basis, label) for label, _ in x.sorted_terms()]
    assert keys == sorted(set(keys)) and len(keys) == len(x.terms)
    assert LinComb(basis, pairs[::-1]).sorted_terms() == x.sorted_terms()


def test_removed_schur_tag_is_unknown():
    with pytest.raises(ValueError):
        label_sort_key("SYM-s", ((1,), ()))


def test_tensor_accepts_exactly_pairs_of_known_bases():
    for b1 in BASES:
        for b2 in BASES:
            assert TensorComb([b1, b2]).bases == (b1, b2)
    for bases in [("bogus", MR_R), (MR_R, "SYM-s"), (MR_R,), (MR_R,) * 3, ()]:
        with pytest.raises(ValueError, match="not a pair of known bases"):
            TensorComb(bases, [((CC1, CC2), 1)])


def test_tensor_arithmetic():
    tc = TensorComb((MR_S, MR_S), [((CC1, CC2), 1)])
    td = TensorComb((MR_S, MR_S), [((CC1, CC2), -1), ((CC2, CC2), 5)])
    assert (tc + td).terms == {(CC2, CC2): 5}
    assert (2 * td).terms == {(CC1, CC2): -2, (CC2, CC2): 10}
