"""Structure constants, defining relations, induced modules, and the
cross-checks they provide for the combinatorial layer."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from cycloribbon import oracle
from cycloribbon.linalg import (
    mat_add,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    reduce_mod_rref,
    rref,
)
from cycloribbon.oracle import (
    AlgebraElement,
    AlgebraParams,
    ExplicitModule,
    OracleError,
    _character_kernel,
    _relation_suite,
    basis_keys,
    build_induced_module,
    build_shape_module,
    character_module,
    check_socle,
    check_submodule_order,
    composition_factors,
    cross_check_induction,
    enumerate_one_dim_characters,
    induced_module_from_seeds,
    lagrange_coeffs,
    left_mult_T,
    left_mult_xi,
    module_relations_ok,
    multiply,
    one,
    verify_relations,
    verify_module_relations,
)
from cycloribbon.reptheory import Character, simple_character
from cycloribbon.ribbons import compositions, enumerate_cycloribbons

rng = random.Random(99)


def peel_composition_factors(params, module):
    """Reference for :func:`composition_factors`: repeatedly split off
    the socle (the span of all joint eigenvectors) and pass to the
    quotient."""
    factors = Counter()
    t_mats = [list(map(list, m)) for m in module.t_mats]
    xi_mats = [list(map(list, m)) for m in module.xi_mats]
    dim = module.dim
    candidates = enumerate_one_dim_characters(params)

    while dim > 0:
        current = ExplicitModule(tuple(t_mats), tuple(xi_mats))
        socle_rows, counts = [], {}
        for char in candidates:
            ker = _character_kernel(params, current, char)
            if ker:
                counts[char] = len(ker)
                socle_rows.extend(ker)
        assert socle_rows, f"no one-dimensional submodule in dimension {dim}"
        sub_rref, pivots = rref(socle_rows)
        assert len(sub_rref) == sum(counts.values()), "dependent eigenspaces"
        factors.update(counts)

        free = [c for c in range(dim) if c not in pivots]

        def quotient(mat):
            out = [[Fraction(0)] * len(free) for _ in range(len(free))]
            for newcol, col in enumerate(free):
                column = [mat[row][col] for row in range(dim)]
                rep = reduce_mod_rref(sub_rref, pivots, column)
                for k, f in enumerate(free):
                    out[k][newcol] = rep[f]
            return out

        t_mats = [quotient(m) for m in t_mats]
        xi_mats = [quotient(m) for m in xi_mats]
        dim = len(free)

    assert sum(factors.values()) == module.dim
    return factors


def reference_verify_relations(params):
    """Reference for :func:`verify_relations`: the relation suite applied
    to each basis element of the regular representation in turn, as an
    :class:`AlgebraElement`, through the generator actions installed on
    the module at call time."""
    checks = _relation_suite(
        params,
        T=lambda i, v: oracle.left_mult_T(params, i, v),
        XI=lambda j, v: oracle.left_mult_xi(params, j, v),
        add=lambda a, b: a + b,
        sub=lambda a, b: a - b,
        scale=lambda s, v: s * v)
    keys = list(basis_keys(params))
    reports = []
    for name, instance, residual in checks:
        bad = None
        for key in keys:
            res = residual(AlgebraElement.basis(*key))
            if res:
                bad = {"basis_element": {"colors": list(key[0]),
                                         "perm": list(key[1])},
                       "residual_terms": len(res.terms)}
                break
        reports.append({"check": name, "instance": instance,
                        "pass": bad is None, "counterexample": bad})
    return reports


def reference_verify_module_relations(params, module):
    """Reference for :func:`verify_module_relations`: the relation suite
    on the dense identity matrix with dense matrix arithmetic."""
    checks = _relation_suite(
        params,
        T=lambda i, v: mat_mul(module.t_mats[i - 1], v),
        XI=lambda j, v: mat_mul(module.xi_mats[j - 1], v),
        add=mat_add, sub=mat_sub, scale=mat_scale)
    probe = mat_identity(module.dim)
    return [{"check": name, "instance": instance,
             "pass": mat_is_zero(residual(probe)), "counterexample": None}
            for name, instance, residual in checks]


def B(colors, perm):
    return AlgebraElement.basis(colors, perm)


def random_element(params, nterms=3):
    terms = {}
    for _ in range(nterms):
        colors = tuple(rng.randint(1, params.r) for _ in range(params.n))
        perm = list(range(1, params.n + 1))
        rng.shuffle(perm)
        terms[(colors, tuple(perm))] = rng.randint(-3, 3)
    return AlgebraElement(terms)


# ---------------------------------------------------------------------------
# generator actions

def test_xi_acts_diagonally():
    p = AlgebraParams(2, 2)
    x = B((2, 1), (1, 2))
    assert left_mult_xi(p, 1, x) == Fraction(2) * x
    assert left_mult_xi(p, 2, x) == Fraction(1) * x
    # a zero eigenvalue must leave no zero coefficient behind
    p = AlgebraParams(2, 2, (Fraction(-5, 6), 0))
    assert not left_mult_xi(p, 1, x)
    assert left_mult_xi(p, 2, x) == Fraction(-5, 6) * x


def test_T_on_increasing_colors():
    p = AlgebraParams(2, 2)
    got = left_mult_T(p, 1, B((1, 2), (1, 2)))
    assert got == B((2, 1), (2, 1)) - B((1, 2), (1, 2))


def test_T_on_equal_colors_quadratic():
    p = AlgebraParams(2, 2)
    got = left_mult_T(p, 1, B((1, 1), (2, 1)))
    assert got == (-1) * B((1, 1), (2, 1))


def test_T_on_decreasing_colors():
    p = AlgebraParams(2, 2)
    got = left_mult_T(p, 1, B((2, 1), (1, 2)))
    assert got == B((1, 2), (2, 1)) + B((1, 2), (1, 2))


def test_unit_element():
    p = AlgebraParams(2, 2)
    unit = one(p)
    x = random_element(p)
    assert multiply(p, unit, x) == x
    assert multiply(p, x, unit) == x


def test_lagrange_idempotents_orthogonal():
    p = AlgebraParams(2, 3)
    ident = (1, 2)
    for c in itertools.product((1, 2, 3), repeat=2):
        for cp in itertools.product((1, 2, 3), repeat=2):
            prod = multiply(p, B(c, ident), B(cp, ident))
            if c == cp:
                assert prod == B(c, ident)
            else:
                assert not prod


def test_multiplication_associative():
    for n, r in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        p = AlgebraParams(n, r)
        for _ in range(15):
            x, y, z = (random_element(p) for _ in range(3))
            assert multiply(p, multiply(p, x, y), z) == \
                multiply(p, x, multiply(p, y, z))


# ---------------------------------------------------------------------------
# relations

def test_relations_small_instances():
    for n, r in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        reports = verify_relations(AlgebraParams(n, r))
        assert all(rep["pass"] for rep in reports)


@pytest.mark.parametrize("n, r, u", [
    (2, 3, (1, 3, 7)), (3, 2, (Fraction(-5, 6), 0)), (2, 3, (0, 1, -2))])
def test_relations_with_other_parameters(n, r, u):
    reports = verify_relations(AlgebraParams(n, r, u))
    assert all(rep["pass"] for rep in reports)


RELATION_PARAMS = [
    (1, 1, ()), (1, 3, ()), (2, 3, (1, 3, 7)), (3, 2, (Fraction(-5, 6), 0)),
    (3, 3, (Fraction(-1, 2), 3, 0)), (4, 2, ()), (4, 3, (5, 6, 7)),
    (5, 2, (2, -7))]


@pytest.mark.parametrize("n, r, u", RELATION_PARAMS)
def test_relation_tables_agree_with_reference(n, r, u):
    p = AlgebraParams(n, r, u)
    assert verify_relations(p) == reference_verify_relations(p)


@pytest.mark.parametrize("n, r, u", [
    (2, 2, ()), (3, 2, (Fraction(-5, 6), 0)), (3, 3, (1, 3, 7))])
def test_broken_T_rule_reported_as_reference(monkeypatch, n, r, u):
    # T_1 + 1 in place of T_1: a linear defect that keeps color content
    good = oracle.left_mult_T

    def broken(params, i, x):
        return good(params, i, x) + x if i == 1 else good(params, i, x)
    monkeypatch.setattr(oracle, "left_mult_T", broken)
    p = AlgebraParams(n, r, u)
    got = verify_relations(p)
    assert got == reference_verify_relations(p)
    failing = {rep["check"] for rep in got if not rep["pass"]}
    assert {"quadratic", "cross-commutation"} <= failing
    assert "commute-xi-xi" not in failing


def test_image_leaving_color_content_block_is_rejected(monkeypatch):
    good = oracle.left_mult_T

    def recolored(params, i, x):
        # a term of color word (1, ..., 1) whatever the input's colors
        out = good(params, i, x)
        return out + AlgebraElement({((1,) * params.n, w): 1
                                     for (c, w) in x.terms})
    monkeypatch.setattr(oracle, "left_mult_T", recolored)
    with pytest.raises(OracleError, match="outside its color-content block"):
        verify_relations(AlgebraParams(2, 2))


@pytest.mark.parametrize("n, r", [(3, 2), (4, 2)])
def test_module_relations_agree_with_dense_reference(n, r):
    p = AlgebraParams(n, r)
    for shape in compositions(n):
        mod = build_shape_module(p, shape)
        broken = ExplicitModule(
            t_mats=(mat_scale(2, mod.t_mats[0]),) + mod.t_mats[1:],
            xi_mats=mod.xi_mats)
        for m in (mod, broken):
            assert verify_module_relations(p, m) == \
                reference_verify_module_relations(p, m)
        assert not all(rep["pass"] for rep in verify_module_relations(p, broken))


def test_residual_at_key_zero_fails():
    # t = 1 breaks T_1^2 = -T_1 on the one-dimensional module, so the
    # quadratic residual is nonzero only at column 0, row 0: key 0
    p = AlgebraParams(2, 2)
    mod = character_module(p, Character((1, 2), (1,)))
    assert not module_relations_ok(p, mod)
    reports = verify_module_relations(p, mod)
    assert reports == reference_verify_module_relations(p, mod)
    assert {rep["check"] for rep in reports if not rep["pass"]} == \
        {"quadratic", "cross-commutation"}


def test_module_relations_act_on_whole_operators(monkeypatch):
    p = AlgebraParams(3, 2)
    small = character_module(p, enumerate_one_dim_characters(p)[0])
    big = build_shape_module(p, (1, 2))
    calls = []
    act = oracle._act

    def counted(table, v):
        calls.append(table)
        return act(table, v)

    monkeypatch.setattr(oracle, "_act", counted)
    counts = []
    for mod in (small, big):
        calls.clear()
        assert module_relations_ok(p, mod)
        counts.append(len(calls))
    assert (small.dim, big.dim) == (1, 8)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("u", [(1, 2, 3), (Fraction(-1, 2), 3, 0), (2, -7)])
def test_lagrange_coeffs_interpolate(u):
    for k in range(1, len(u) + 1):
        nums, denom = lagrange_coeffs(u, k)
        assert all(type(a) is int for a in nums) and type(denom) is int
        for l, ul in enumerate(u, start=1):
            value = Fraction(sum(a * ul ** d for d, a in enumerate(nums)), denom)
            assert value == (1 if l == k else 0)


def test_basis_size():
    p = AlgebraParams(3, 2)
    assert len(list(basis_keys(p))) == 48 == p.dimension


def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(2, 2, (1, 1))
    with pytest.raises(ValueError):
        AlgebraParams(0, 2)


# ---------------------------------------------------------------------------
# one-dimensional characters

def test_character_census_counts():
    assert len(enumerate_one_dim_characters(AlgebraParams(2, 2))) == 6
    assert len(enumerate_one_dim_characters(AlgebraParams(3, 2))) == 18
    assert len(enumerate_one_dim_characters(AlgebraParams(3, 3))) == 48


def test_census_equals_combinatorial_characters():
    for n, r in [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]:
        census = set(enumerate_one_dim_characters(AlgebraParams(n, r)))
        combinatorial = {simple_character(rib)
                         for rib in enumerate_cycloribbons(n, r)}
        assert census == combinatorial


def test_all_zero_T_constant_color_characters_exist():
    census = set(enumerate_one_dim_characters(AlgebraParams(3, 3)))
    for k in (1, 2, 3):
        assert Character((k, k, k), (0, 0)) in census


# ---------------------------------------------------------------------------
# induced modules

def test_induced_module_dimensions():
    p = AlgebraParams(4, 2)
    chars = [Character((1, 2), (-1,)), Character((2, 1), (0,))]
    mod = build_induced_module(p, chars)
    assert mod.dim == 6
    assert all(rep["pass"] for rep in verify_module_relations(p, mod))


def test_inducing_a_character_from_the_whole_algebra():
    p = AlgebraParams(3, 2)
    char = Character((2, 2, 2), (0, 0))
    mod = build_induced_module(p, [char])
    assert mod.dim == 1
    assert composition_factors(p, mod) == Counter({char: 1})


def test_pinned_induced_module_factors():
    p = AlgebraParams(4, 2)
    a = simple_character(enumerate_cycloribbons(2, 2, shape=(1, 1))[1])
    # pick the exact labels of the pinned example
    from cycloribbon.ribbons import ColoredRibbon
    a = simple_character(ColoredRibbon((1, 1), (2, 1)))
    b = simple_character(ColoredRibbon((2,), (1, 2)))
    mod = build_induced_module(p, [a, b])
    got = composition_factors(p, mod)
    expected = Counter()
    for rib, mult in {
        ColoredRibbon((1, 3), (2, 1, 1, 2)): 1,
        ColoredRibbon((1, 1, 2), (2, 1, 1, 2)): 1,
        ColoredRibbon((2, 2), (1, 2, 1, 2)): 1,
        ColoredRibbon((1, 2, 1), (2, 1, 2, 1)): 1,
        ColoredRibbon((3, 1), (1, 2, 2, 1)): 1,
        ColoredRibbon((2, 1, 1), (1, 2, 2, 1)): 1,
    }.items():
        expected[simple_character(rib)] += mult
    assert got == expected


def test_staged_equals_naive_ideal_quotient():
    # the staged construction agrees with the raw one-ideal computation
    for n, r, sizes in [(2, 2, (1, 1)), (3, 2, (1, 2)), (3, 2, (2, 1))]:
        p = AlgebraParams(n, r)
        ribs = [enumerate_cycloribbons(m, r) for m in sizes]
        for pick in itertools.islice(itertools.product(*ribs), 6):
            chars = [simple_character(rib) for rib in pick]
            staged = build_induced_module(p, chars)

            a = tuple(c for ch in chars for c in ch.xi_colors)
            unit = one(p)
            seeds = []
            offset = 0
            for ch in chars:
                for local, t in enumerate(ch.t_values, start=1):
                    i = offset + local
                    seeds.append(left_mult_T(p, i, unit) - Fraction(t) * unit)
                offset += len(ch.xi_colors)
            for j in range(1, n + 1):
                seeds.append(left_mult_xi(p, j, unit)
                             - p.u[a[j - 1] - 1] * unit)
            naive = induced_module_from_seeds(p, seeds,
                                              expected_dim=staged.dim)
            assert composition_factors(p, naive) == \
                composition_factors(p, staged)


def test_factors_independent_of_parameters():
    from cycloribbon.ribbons import ColoredRibbon
    a = ColoredRibbon((1,), (2,))
    b = ColoredRibbon((1, 1), (3, 1))
    for u in [None, (1, 3, 7)]:
        p = AlgebraParams(3, 3, u or ())
        mod = build_induced_module(
            p, [simple_character(a), simple_character(b)])
        factors = composition_factors(p, mod)
        assert sum(factors.values()) == 3
        if u is None:
            reference = factors
    assert factors == reference


def test_composition_factors_of_character_module():
    p = AlgebraParams(2, 2)
    for char in enumerate_one_dim_characters(p):
        assert composition_factors(p, character_module(p, char)) == \
            Counter({char: 1})


# ---------------------------------------------------------------------------
# shape modules

def test_shape_module_dimensions_and_factors():
    p = AlgebraParams(2, 2)
    for shape in [(2,), (1, 1)]:
        mod = build_shape_module(p, shape)
        assert mod.dim == 4
        factors = composition_factors(p, mod)
        assert sum(factors.values()) == 4


def test_shape_module_one_color_is_simple():
    p = AlgebraParams(3, 1)
    mod = build_shape_module(p, (2, 1))
    assert mod.dim == 1
    ((char, mult),) = composition_factors(p, mod).items()
    assert mult == 1 and char.t_values == (0, -1)


def test_shape_module_socle_dimension():
    p = AlgebraParams(3, 2)
    mod = build_shape_module(p, (2, 1))
    assert mod.dim == 8
    report = check_socle(p, (2, 1))
    assert report["pass"]


def test_shape_module_matches_ideal_quotient():
    for shape in [(2,), (1, 1), (2, 1), (3,)]:
        n = sum(shape)
        p = AlgebraParams(n, 2)
        direct = build_shape_module(p, shape)
        from cycloribbon.ribbons import descent_set
        ds = descent_set(shape)
        unit = one(p)
        seeds = [left_mult_T(p, i, unit) - Fraction(-1 if i in ds else 0) * unit
                 for i in range(1, n)]
        naive = induced_module_from_seeds(p, seeds, expected_dim=2 ** n)
        assert composition_factors(p, naive) == composition_factors(p, direct)


def test_order_and_socle_checks():
    for n in range(1, 4):
        for r in (1, 2):
            p = AlgebraParams(n, r)
            for shape in compositions(n):
                assert check_submodule_order(p, shape)["pass"]
                assert check_socle(p, shape)["pass"]


# ---------------------------------------------------------------------------
# arbitration

def test_cross_check_small():
    report = cross_check_induction(2, 3)
    assert report["pass"] and report["cases"] == 28


def test_cross_check_negation_fails_with_three_colors():
    report = cross_check_induction(3, 2, negate_colors=True)
    assert not report["pass"]
    report = cross_check_induction(3, 2)
    assert report["pass"]


# ---------------------------------------------------------------------------
# composition factors: idempotent traces against socle peeling

def criterion_11_modules(r, max_grade, u=None):
    """The induced modules of acceptance criterion 11 at one r."""
    for total in range(2, max_grade + 1):
        p = AlgebraParams(total, r, u or ())
        for m in range(1, total):
            for a in enumerate_cycloribbons(m, r):
                for b in enumerate_cycloribbons(total - m, r):
                    yield p, build_induced_module(
                        p, [simple_character(a), simple_character(b)])


def shape_modules(n, r, u=None):
    p = AlgebraParams(n, r, u or ())
    for shape in compositions(n):
        yield p, build_shape_module(p, shape)


def assert_traces_agree_with_peeling(p, mod):
    got = composition_factors(p, mod)
    assert got == peel_composition_factors(p, mod)
    assert all(type(m) is int for m in got.values())


@pytest.mark.parametrize("r, max_grade, u", [
    (2, 4, None), (3, 3, None), (3, 3, (2, 7, -3)),
    (2, 4, (Fraction(1, 2), 3))])
def test_traces_agree_with_peeling_on_induced_modules(r, max_grade, u):
    for p, mod in criterion_11_modules(r, max_grade, u):
        assert_traces_agree_with_peeling(p, mod)


@pytest.mark.parametrize("n, r, u", [
    (3, 2, None), (3, 3, None), (4, 2, None),
    (3, 3, (2, 7, -3)), (4, 2, (Fraction(1, 2), 3))])
def test_traces_agree_with_peeling_on_shape_modules(n, r, u):
    for p, mod in shape_modules(n, r, u):
        assert_traces_agree_with_peeling(p, mod)


def test_non_idempotent_pi_is_rejected():
    # T_1 acts by -1 on the weight (1, 1) of this module, so 2*T_1 makes
    # pi_1 = 1 + 2*T_1 act by -1 there, which does not square to itself
    p = AlgebraParams(2, 2)
    mod = build_shape_module(p, (1, 1))
    (t1,) = mod.t_mats
    broken = ExplicitModule(t_mats=([[2 * x for x in row] for row in t1],),
                            xi_mats=mod.xi_mats)
    with pytest.raises(OracleError, match="not idempotent"):
        composition_factors(p, broken)


def test_integral_parameters_stay_ints():
    u = AlgebraParams(3, 3, (2, Fraction(14, 2), "-3")).u
    assert u == (2, 7, -3) and all(type(x) is int for x in u)
    assert all(type(x) is int for x in AlgebraParams(2, 2).u)
    assert type(AlgebraParams(2, 2, ("1/2", 3)).u[0]) is Fraction
