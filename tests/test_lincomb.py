import json
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
    coeff_from_str,
    coeff_to_str,
    label_from_json,
    label_sort_key,
    label_to_json,
    lincomb_from_json,
    lincomb_to_json,
    tensorcomb_to_json,
)
from cycloribbon.ribbons import ColoredComposition, ColoredRibbon
from test_ribbons import PROPERTY, random_colored_compositions, random_ribbons

CC1 = ColoredComposition((2, 1), (1, 2))
CC2 = ColoredComposition((3,), (1,))
RIB = ColoredRibbon((1, 1), (2, 1))


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


def test_coeff_strings():
    assert coeff_to_str(Fraction(3, 1)) == "3"
    assert coeff_to_str(Fraction(-1, 2)) == "-1/2"
    assert coeff_from_str("7") == 7
    assert coeff_from_str("-4/6") == Fraction(-2, 3)


def test_json_roundtrip_bit_exact():
    lc = LinComb(MR_R, [(CC1, Fraction(-5, 3)), (CC2, 41)])
    blob = json.dumps(lincomb_to_json(lc))
    back = lincomb_from_json(json.loads(blob))
    assert back == lc
    assert json.dumps(lincomb_to_json(back)) == blob

    f = LinComb(QMR_F, [(RIB, 1)])
    assert lincomb_from_json(json.loads(json.dumps(lincomb_to_json(f)))) == f

    h = LinComb(SYM_H, [(((1, 2), (2, 1)), Fraction(9, 7))])
    assert lincomb_from_json(json.loads(json.dumps(lincomb_to_json(h)))) == h


# one label of every basis; a basis without one fails by KeyError
LABELS = {MR_S: CC1, MR_R: CC2, QMR_F: RIB, SYM_H: ((1, 2), (2, 1)),
          NCSF_R: (2, 1)}


@pytest.mark.parametrize("basis", BASES)
def test_json_roundtrip_every_basis(basis):
    x = LinComb(basis, [(LABELS[basis], Fraction(-3, 4))])
    assert lincomb_from_json(json.loads(json.dumps(lincomb_to_json(x)))) == x


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
def test_json_roundtrip_random_sums(basis, data):
    x = LinComb(basis, data.draw(st.lists(st.tuples(
        RANDOM_LABELS[basis], st.fractions(-20, 20, max_denominator=12)), max_size=6)))
    blob = json.dumps(lincomb_to_json(x))
    back = lincomb_from_json(json.loads(blob))
    assert back == x
    assert json.dumps(lincomb_to_json(back)) == blob


def test_removed_schur_tag_is_unknown():
    with pytest.raises(ValueError):
        label_sort_key("SYM-s", ((1,), ()))
    with pytest.raises(ValueError):
        label_to_json("SYM-s", ((1,), ()))
    with pytest.raises(ValueError):
        label_from_json("SYM-s", {"components": [[1], []]})


def test_json_shape():
    obj = lincomb_to_json(LinComb.single(MR_R, CC1))
    assert obj == {"basis": "MR-R",
                   "terms": [{"coeff": "1",
                              "label": {"parts": [2, 1], "colors": [1, 2]}}]}


def test_tensor_json_shape():
    obj = tensorcomb_to_json(TensorComb((MR_S, QMR_F), [((CC1, RIB), 6)]))
    assert obj == {"bases": ["MR-S", "QMR-F"],
                   "terms": [{"coeff": "6",
                              "left": {"parts": [2, 1], "colors": [1, 2]},
                              "right": {"shape": [1, 1], "colors": [2, 1]}}]}


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
