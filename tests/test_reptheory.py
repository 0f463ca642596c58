"""Module labels, dimensions, induction, and the two matrices."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given

from cycloribbon import hopf, reptheory
from cycloribbon.hopf import (
    cartan_map,
    h_monomial,
    multipartition_class,
    mr_to_ncsf,
    mr_to_sym,
    sym_to_qmr,
)
from cycloribbon.lincomb import LinComb, MR_R
from cycloribbon.reptheory import (
    Character,
    cartan_matrix,
    decomposition_matrix,
    dim_projective,
    induce_hecke_projective,
    induce_projectives,
    induce_simples,
    projective_labels,
    projective_simple_quotient,
    restrict_simple,
    ribbon_from_character,
    simple_character,
    simple_labels,
)
from cycloribbon.ribbons import (
    ColoredComposition,
    ColoredRibbon,
    cell_composition,
    color_runs,
    colored_composition_literal,
    colored_compositions,
    descent_class_size,
    enumerate_anticycloribbons,
    enumerate_cycloribbons,
    multipartition_literal,
    multipartitions,
    partitions,
    ribbon_literal,
)
from test_hopf import colored_partitions
from test_ribbons import PROPERTY, random_colored_compositions, random_cycloribbons

CC = ColoredComposition
RIB = ColoredRibbon


def test_simple_character_examples():
    assert simple_character(RIB((2,), (1, 2))) == Character((1, 2), (-1,))
    assert simple_character(RIB((1, 1), (2, 1))) == Character((2, 1), (0,))
    assert simple_character(RIB((4,), (3, 3, 3, 3))) == \
        Character((3, 3, 3, 3), (0, 0, 0))


def test_simple_character_rejects_noncycloribbon():
    with pytest.raises(ValueError):
        simple_character(RIB((2,), (2, 1)))
    with pytest.raises(ValueError):
        simple_character(RIB((1,), (1, 2)))
    with pytest.raises(ValueError):
        simple_character(RIB((2,), (-1, 3)))
    with pytest.raises(ValueError):
        simple_character(RIB((1,), (0,)))


def test_character_bijection():
    for n in range(1, 6):
        for r in (1, 2, 3):
            labels = simple_labels(n, r)
            chars = {simple_character(rib) for rib in labels}
            assert len(chars) == len(labels) == r * (r + 1) ** (n - 1)
            for rib in labels:
                assert ribbon_from_character(simple_character(rib)) == rib


def test_ribbon_from_character_accepts_exactly_the_simples():
    # e.g. ((2, 1), (-1,)) and ((1, 2), (0,)) flip to no cycloribbon
    for n in range(4):
        for r in (1, 2, 3):
            simple = {simple_character(rib) for rib in simple_labels(n, r)}
            for xi in itertools.product(range(1, r + 1), repeat=n):
                for t in itertools.product((0, -1), repeat=max(n - 1, 0)):
                    char = Character(xi, t)
                    if char in simple:
                        assert simple_character(
                            ribbon_from_character(char)) == char
                    else:
                        with pytest.raises(ValueError,
                                           match="character of no simple"):
                            ribbon_from_character(char)
    # T values with no T generator, or more of them than generators
    for char in (Character((1,), (0,)), Character((1,), (-1,)),
                 Character((1, 2), (-1, -1))):
        with pytest.raises(ValueError, match="character of no simple"):
            ribbon_from_character(char)


def test_induce_simples_pinned():
    got = induce_simples(RIB((1, 1), (2, 1)), RIB((2,), (1, 2)))
    assert got == Counter({
        RIB((1, 3), (2, 1, 1, 2)): 1,
        RIB((1, 1, 2), (2, 1, 1, 2)): 1,
        RIB((2, 2), (1, 2, 1, 2)): 1,
        RIB((1, 2, 1), (2, 1, 2, 1)): 1,
        RIB((3, 1), (1, 2, 2, 1)): 1,
        RIB((2, 1, 1), (1, 2, 2, 1)): 1,
    })


def test_induce_simples_edge_cases():
    empty = RIB((), ())
    x = RIB((2, 1), (1, 2, 1))
    assert induce_simples(x, empty) == Counter({x: 1})
    assert induce_simples(RIB((1,), (1,)), RIB((1,), (1,))) == \
        Counter({RIB((2,), (1, 1)): 1, RIB((1, 1), (1, 1)): 1})


def test_restrict_simple():
    rib = RIB((1, 3), (2, 1, 1, 2))
    assert restrict_simple(rib, 2) == [(RIB((1, 1), (2, 1)), RIB((2,), (1, 2)))]
    assert restrict_simple(rib, 0) == [(RIB((), ()), rib)]
    assert restrict_simple(rib, 4) == [(rib, RIB((), ()))]


def test_restrict_simple_rejects_labels_that_are_not_cycloribbons():
    # the colors fall along the row, so no simple has this label
    rib = RIB((2,), (2, 1))
    for call in (simple_character, lambda x: restrict_simple(x, 1),
                 lambda x: induce_simples(RIB((1,), (1,)), x),
                 lambda x: induce_simples(x, RIB((1,), (1,)))):
        with pytest.raises(ValueError, match="is not a cycloribbon"):
            call(rib)


def test_restrict_then_induce_bookkeeping():
    # every split of each factor of the pinned induction re-induces to the
    # right number of factors, and the original label reappears
    factors = induce_simples(RIB((1, 1), (2, 1)), RIB((2,), (1, 2)))
    for rib in factors:
        for m in range(5):
            (left, right), = restrict_simple(rib, m)
            back = induce_simples(left, right)
            assert sum(back.values()) == math.comb(4, m)
            assert back[rib] >= 1


def test_induce_projectives():
    assert induce_projectives(CC((2,), (1,)), CC((1,), (1,))) == \
        Counter({CC((2, 1), (1, 1)): 1, CC((3,), (1,)): 1})
    assert induce_projectives(CC((2,), (1,)), CC((1,), (2,))) == \
        Counter({CC((2, 1), (1, 2)): 1})


def test_induce_projectives_dimensions():
    for a, b in [(CC((2,), (1,)), CC((1,), (1,))),
                 (CC((1, 1), (1, 2)), CC((2,), (2,))),
                 (CC((1,), (2,)), CC((1, 2), (2, 1)))]:
        m, n = a.size, b.size
        summands = induce_projectives(a, b)
        total = sum(dim_projective(cc) * mult for cc, mult in summands.items())
        assert total == math.comb(m + n, m) * dim_projective(a) * dim_projective(b)


def test_dim_projective_examples():
    assert dim_projective(CC((1, 1, 1), (2, 1, 2))) == 6
    assert dim_projective(CC((2, 1), (2, 2))) == 2
    assert dim_projective(CC((5,), (3,))) == 1
    assert dim_projective(CC((), ())) == 1


@pytest.mark.parametrize("cc", [CC((0,), (1,)), CC((2,), (-1,)), CC((2,), (0,)),
                                CC((1, 2), (1,)), CC((1,), (1, 2)),
                                CC((2, 0, 1), (1, 1, 2))])
def test_dim_projective_rejects_labels_that_are_not_colored_compositions(cc):
    with pytest.raises(ValueError, match="is not a colored composition"):
        dim_projective(cc)


def test_induce_hecke_projective_shape_21():
    summands = induce_hecke_projective((2, 1), 2)
    assert sorted(d for _, d in summands) == [2, 2, 3, 3, 6]
    assert sum(d for _, d in summands) == 16
    labels = {cc for cc, _ in summands}
    assert labels == {CC((1, 1, 1), (2, 1, 1)), CC((1, 1, 1), (2, 1, 2)),
                      CC((2, 1), (1, 2)), CC((2, 1), (2, 2)),
                      CC((2, 1), (1, 1))}
    assert induce_hecke_projective([2, 1], 2) == summands


def test_induce_hecke_projective_one_color():
    assert induce_hecke_projective((4,), 1) == [(CC((4,), (1,)), 1)]
    for shape in [(3,), (1, 2), (2, 2)]:
        n = sum(shape)
        for r in (1, 2):
            total = sum(d for _, d in induce_hecke_projective(shape, r))
            assert total == r ** n * descent_class_size(shape)


@pytest.mark.parametrize("shape", [(2, 0, 1), (3, 0), (1, -1, 3)])
def test_induce_hecke_projective_rejects_nonpositive_parts(shape):
    with pytest.raises(ValueError):
        induce_hecke_projective(shape, 2)


def test_induce_simples_cache_ignores_r_without_negation():
    a, b = RIB((1, 1), (2, 1)), RIB((2,), (1, 2))
    hopf._f_label_product.cache_clear()
    assert induce_simples(a, b, r=3) == induce_simples(a, b, r=2)
    info = hopf._f_label_product.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def reference_dim_projective(cc):
    """Restriction to the colorless subalgebra through NCSF, then descent
    class sizes: the reference for the closed form of dim_projective."""
    image = mr_to_ncsf(LinComb.single(MR_R, cc))
    return sum(coeff * descent_class_size(parts)
               for parts, coeff in image.terms.items())


@pytest.mark.parametrize("n, r", [(n, r) for n in range(7) for r in (1, 2, 3)]
                         + [(7, 2)])
def test_dim_projective_matches_ncsf_reference(n, r):
    labels = projective_labels(n, r)
    dims = [dim_projective(cc) for cc in labels]
    assert dims == [reference_dim_projective(cc) for cc in labels]
    assert sum(dims) == r ** n * math.factorial(n)


@PROPERTY
@given(random_colored_compositions())
def test_dim_projective_matches_reference_on_random_labels(cc):
    assert dim_projective(cc) == reference_dim_projective(cc)


def test_dimension_identity():
    for n in range(1, 5):
        for r in (1, 2, 3):
            total = sum(dim_projective(cc) for cc in projective_labels(n, r))
            assert total == r ** n * math.factorial(n)


def test_projective_simple_quotient_bijective():
    for n in range(4):
        for r in (1, 2):
            quotients = [projective_simple_quotient(cc)
                         for cc in projective_labels(n, r)]
            assert sorted(quotients) == sorted(simple_labels(n, r))


@pytest.mark.parametrize("n, r", [(n, r) for r in (1, 2, 3) for n in range(7)])
def test_cell_composition_inverts_simple_quotient(n, r):
    for cc in projective_labels(n, r):
        assert cell_composition(projective_simple_quotient(cc)) == cc
    for rib in simple_labels(n, r):
        assert projective_simple_quotient(cell_composition(rib)) == rib


@PROPERTY
@given(random_cycloribbons())
def test_cell_composition_inverts_simple_quotient_on_random_labels(rib):
    assert projective_simple_quotient(cell_composition(rib)) == rib


# ---------------------------------------------------------------------------
# Cartan matrix

def test_cartan_identity_in_degree_one():
    for r in (1, 2, 3):
        m = cartan_matrix(1, r)
        assert [list(row) for row in m.entries] == \
            [[1 if i == j else 0 for j in range(r)] for i in range(r)]


def test_matrices_need_at_least_one_color():
    labels = (enumerate_cycloribbons, enumerate_anticycloribbons,
              colored_compositions, simple_labels, projective_labels,
              lambda n, r: enumerate_cycloribbons(n, r, shape=(1,) * n),
              lambda n, r: induce_hecke_projective((1,) * n, r))
    for n, r in ((0, 0), (2, 0), (2, -1)):
        for build in (multipartitions, cartan_matrix, decomposition_matrix) + labels:
            with pytest.raises(ValueError, match=f"^need r >= 1, got r = {r}$"):
                build(n, r)


def test_cartan_2_2_pinned():
    m = cartan_matrix(2, 2)
    rows = {colored_composition_literal(l): list(e)
            for l, e in zip(m.row_labels, m.entries)}
    cols = [ribbon_literal(l) for l in m.col_labels]
    assert cols == ["2|1,1", "2|1,2", "2|2,2", "1,1|1,1", "1,1|2,1", "1,1|2,2"]
    assert rows == {
        "2^1": [1, 0, 0, 0, 0, 0],
        "2^2": [0, 0, 1, 0, 0, 0],
        "1^1.1^1": [0, 0, 0, 1, 0, 0],
        "1^1.1^2": [0, 1, 0, 0, 1, 0],
        "1^2.1^1": [0, 1, 0, 0, 1, 0],
        "1^2.1^2": [0, 0, 0, 0, 0, 1],
    }
    assert sorted(m.row_sums()) == [1, 1, 1, 1, 2, 2]


def test_cartan_row_sums_are_dimensions():
    for n in range(1, 4):
        for r in (1, 2):
            m = cartan_matrix(n, r)
            assert m.row_sums() == [dim_projective(cc) for cc in m.row_labels]


def test_cartan_factorizes():
    from cycloribbon.lincomb import SYM_H
    n, r = 3, 2
    monomials = colored_partitions(n, r)
    mono_index = {m: k for k, m in enumerate(monomials)}
    rows = projective_labels(n, r)
    cols = simple_labels(n, r)
    e_mat = [[0] * len(monomials) for _ in rows]
    for i, cc in enumerate(rows):
        for mono, coeff in mr_to_sym(LinComb.single(MR_R, cc)).terms.items():
            e_mat[i][mono_index[mono]] = coeff
    d_mat = [[0] * len(cols) for _ in monomials]
    col_index = {lab: k for k, lab in enumerate(cols)}
    for k, mono in enumerate(monomials):
        image = sym_to_qmr(LinComb.single(SYM_H, mono))
        for lab, coeff in image.terms.items():
            d_mat[k][col_index[lab]] = coeff
    product = [[sum(e_mat[i][k] * d_mat[k][j] for k in range(len(monomials)))
                for j in range(len(cols))]
               for i in range(len(rows))]
    cartan = cartan_matrix(n, r)
    assert [list(row) for row in cartan.entries] == product


def reference_matrix(rows, image, n, r):
    """One fundamental expansion per row label, placed column by column:
    the reference for the E·D path of the two matrices."""
    cols = simple_labels(n, r)
    col_index = {lab: k for k, lab in enumerate(cols)}
    entries = []
    for label in rows:
        row = [0] * len(cols)
        for lab, coeff in image(label).terms.items():
            row[col_index[lab]] = coeff
        entries.append(tuple(row))
    return tuple(rows), tuple(cols), tuple(entries)


# (2, 8), (3, 6) and (4, 5): small trie nodes against large row factors,
# where each row's walk looks up every key of its factor
MATRIX_SIZES = [(n, r) for n in range(7) for r in (1, 2, 3)] + \
    [(n, 4) for n in range(6)] + [(7, 2), (2, 8), (3, 6), (4, 5)]


@pytest.mark.parametrize("n, r", MATRIX_SIZES)
def test_matrices_match_per_row_reference(n, r):
    m = cartan_matrix(n, r)
    assert (m.row_labels, m.col_labels, m.entries) == reference_matrix(
        projective_labels(n, r),
        lambda cc: cartan_map(LinComb.single(MR_R, cc)), n, r)
    d = decomposition_matrix(n, r)
    assert (d.row_labels, d.col_labels, d.entries) == reference_matrix(
        multipartitions(n, r),
        lambda mp: sym_to_qmr(multipartition_class(mp)), n, r)


def one_color_monomials(n):
    return sorted(h_monomial((1, d) for d in lam)
                  for k in range(n + 1) for lam in partitions(k))


@pytest.mark.parametrize("matrix", [cartan_matrix, decomposition_matrix])
def test_matrices_image_each_one_color_monomial_once(matrix, monkeypatch):
    calls = []

    def counted(a):
        calls.extend(a.terms)
        return sym_to_qmr(a)

    monkeypatch.setattr(reptheory, "sym_to_qmr", counted)
    reptheory._column_side.cache_clear()
    matrix(4, 2)
    assert sorted(calls) == one_color_monomials(4)
    calls.clear()
    matrix(4, 2)
    assert calls == []


def standard_tableaux_rows(lam):
    """Every standard Young tableau of shape ``lam`` as the row of each of
    1..n, filled one entry at a time into an addable cell."""
    def fill(lengths, rows):
        if sum(lengths) == sum(lam):
            yield rows
        for i, length in enumerate(lengths):
            if length < lam[i] and (i == 0 or lengths[i - 1] > length):
                yield from fill(lengths[:i] + (length + 1,) + lengths[i + 1:],
                                rows + (i,))
    return fill((0,) * len(lam), ())


@pytest.mark.parametrize("n", range(10))
def test_one_color_decomposition_counts_tableaux_by_descents(n):
    """Gessel: the coefficient of F_I in s_lam is the number of standard
    tableaux of shape lam with descent set D(I), where i is a descent when
    i + 1 lies in a lower row (English notation)."""
    m = decomposition_matrix(n, 1)
    for (lam,), row in zip(m.row_labels, m.entries):
        counts = Counter(
            frozenset(i for i in range(1, n) if rows[i] > rows[i - 1])
            for rows in standard_tableaux_rows(lam))
        assert row == tuple(
            counts[frozenset(itertools.accumulate(rib.shape[:-1]))]
            for rib in m.col_labels)


def test_cartan_rows_with_one_expansion_share_one_tuple():
    m = cartan_matrix(6, 2)
    assert len({id(row) for row in m.entries}) == len(set(m.entries)) == 190


def runs_of_each_color(cc, r):
    return [tuple(sorted(run for color, run in color_runs(cc) if color == c))
            for c in range(1, r + 1)]


@pytest.mark.parametrize("n, r, keys", [(6, 2, 93), (5, 3, 43)])
def test_matrices_compute_each_row_factor_once(monkeypatch, n, r, keys):
    calls = []

    def counted(factor):
        def wrapper(x):
            calls.append(x)
            return factor(x)
        return wrapper

    monkeypatch.setattr(reptheory, "_ribbons_in_h",
                        counted(reptheory._ribbons_in_h))
    cartan_matrix(n, r)
    runs = {x for cc in projective_labels(n, r) for x in runs_of_each_color(cc, r)}
    assert len(calls) == len(set(calls)) == len(runs) == keys
    assert set(calls) == runs
    calls.clear()
    monkeypatch.setattr(reptheory, "schur_in_h", counted(reptheory.schur_in_h))
    decomposition_matrix(n, r)
    parts = {lam for mp in multipartitions(n, r) for lam in mp}
    assert len(calls) == len(set(calls)) == len(parts)
    assert set(calls) == parts


# ---------------------------------------------------------------------------
# decomposition matrix

def test_decomposition_pinned_rows():
    m = decomposition_matrix(2, 2)
    row = dict(zip(m.row_labels, m.entries))
    entries = row[((1, 1), ())]
    nonzero = {m.col_labels[j]: v for j, v in enumerate(entries) if v}
    assert nonzero == {RIB((1, 1), (1, 1)): 1}
    entries = row[((2,), ())]
    nonzero = {m.col_labels[j]: v for j, v in enumerate(entries) if v}
    assert nonzero == {RIB((2,), (1, 1)): 1}


def test_decomposition_entries_nonnegative():
    for n in range(1, 4):
        for r in (1, 2):
            m = decomposition_matrix(n, r)
            assert len(m.row_labels) == len(multipartitions(n, r))
            for row in m.entries:
                assert all(isinstance(v, int) and v >= 0 for v in row)


@pytest.mark.parametrize("n, r", [(n, 2) for n in range(5)] + [(3, 3), (2, 4)])
def test_brauer_reciprocity(n, r):
    # the Schur functions are orthonormal, so the row of a projective in
    # the Cartan matrix pairs the decomposition column of its simple
    # quotient with every decomposition column
    cartan, decomp = cartan_matrix(n, r), decomposition_matrix(n, r)
    assert cartan.col_labels is decomp.col_labels  # one column side per (n, r)
    column = {rib: j for j, rib in enumerate(decomp.col_labels)}
    for cc, row in zip(cartan.row_labels, cartan.entries):
        q = column[projective_simple_quotient(cc)]
        assert row == tuple(sum(d[q] * d[j] for d in decomp.entries)
                            for j in range(len(column)))


# ---------------------------------------------------------------------------
# exports

def test_matrix_exports():
    m = cartan_matrix(1, 2)
    csv = m.to_csv(colored_composition_literal)
    assert csv == ",1|1,1|2\n1^1,1,0\n1^2,0,1\n"
    obj = m.to_json_dict(colored_composition_literal)
    assert obj == {"rows": ["1^1", "1^2"], "cols": ["1|1", "1|2"],
                   "entries": [[1, 0], [0, 1]]}
    d = decomposition_matrix(1, 2)
    assert d.to_json_dict(multipartition_literal)["rows"] == \
        [";1", "1;"]
