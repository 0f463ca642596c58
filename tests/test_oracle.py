"""Structure constants, defining relations, induced modules, and the
cross-checks they provide for the combinatorial layer."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from cycloribbon import hopf, oracle, reptheory, ribbons
from cycloribbon.linalg import (
    SparseEchelon,
    mat_add,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
)
from cycloribbon.oracle import (
    AlgebraElement,
    AlgebraParams,
    ExplicitModule,
    OracleError,
    _relation_suite,
    basis_keys,
    build_induced_module,
    build_shape_module,
    check_socle,
    check_submodule_order,
    composition_factors,
    cross_check_induction,
    enumerate_one_dim_characters,
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
from test_linalg import (
    reference_kernel_basis,
    reference_reduce_mod_rref,
    reference_rref,
)

rng = random.Random(99)


def character_module(params, char):
    return ExplicitModule(
        t_mats=tuple([[t]] for t in char.t_values),
        xi_mats=tuple([[params.u[c - 1]]] for c in char.xi_colors))


def reference_character_kernel(params, module, char):
    """Dense common kernel of ``g - chi(g)`` over the generators ``g``."""
    ident = mat_identity(module.dim)
    values = char.t_values + tuple(params.u[c - 1] for c in char.xi_colors)
    stacked = []
    for mat, value in zip(module.t_mats + module.xi_mats, values):
        stacked.extend(mat_sub(mat, mat_scale(value, ident)))
    return reference_kernel_basis(stacked, module.dim)


def reference_one_dim_characters(params):
    """Reference for :func:`enumerate_one_dim_characters`: the relations
    checked on each candidate's one-dimensional module in turn."""
    out = []
    for colors in itertools.product(range(1, params.r + 1), repeat=params.n):
        for tvals in itertools.product((0, -1), repeat=params.n - 1):
            char = Character(colors, tvals)
            if module_relations_ok(params, character_module(params, char)):
                out.append(char)
    return tuple(sorted(out))


def reference_generator_ops(params):
    """Left multiplication by ``T_1..T_{n-1}``, then ``xi_1..xi_n``, as
    maps of dict vectors over the ``(color word, permutation)`` keys,
    through :class:`AlgebraElement` and the generator actions installed on
    the module at call time."""
    def on_dicts(name, k):
        return lambda v: getattr(oracle, name)(params, k, AlgebraElement(v)).terms
    return ([on_dicts("left_mult_T", i) for i in range(1, params.n)]
            + [on_dicts("left_mult_xi", j) for j in range(1, params.n + 1)])


def reference_quotient_matrices(params, ops, ambient, sub_rows):
    """Reference for ``oracle._quotient_matrices``: the quotient through a
    dense Fraction row echelon form of the sub-row coordinates."""
    dim = len(ambient)

    def coordinates(vec):
        coords = ambient.coordinates(vec)
        return [coords.get(k, 0) for k in range(dim)]

    coords = [coordinates(row) for row in sub_rows]
    sub_rref, pivots = reference_rref(coords) if coords else ([], [])
    free = [c for c in range(dim) if c not in pivots]
    index_of = {f: k for k, f in enumerate(free)}

    def action(op):
        mat = [[0] * len(free) for _ in range(len(free))]
        for col, f in enumerate(free):
            rep = reference_reduce_mod_rref(sub_rref, pivots,
                                            coordinates(op(ambient.rows[f])))
            for c, val in enumerate(rep):
                if val:
                    mat[index_of[c]][col] = (val.numerator if val.denominator == 1
                                             else val)
        return mat

    mats = [action(op) for op in ops]
    module = ExplicitModule(t_mats=tuple(mats[:params.n - 1]),
                            xi_mats=tuple(mats[params.n - 1:]))
    return module, len(free)


def induced_module_from_seeds(params, seeds, expected_dim=None):
    """Reference construction: quotient of the whole left regular
    representation by the left ideal generated by the seeds.  Exponential
    in size, used to cross-validate the staged constructions."""
    ops = reference_generator_ops(params)
    ideal = oracle._closure(ops, [s.terms for s in seeds])
    ambient = SparseEchelon()
    for key in basis_keys(params):
        ambient.insert({key: 1})
    module, dim = oracle._quotient_matrices(params, ops, ambient, ideal.rows)
    if expected_dim is not None and dim != expected_dim:
        raise OracleError(f"induced module has dimension {dim}, expected {expected_dim}")
    return module


def reference_induced_module(params, chars):
    """Reference for :func:`build_induced_module`: the same staged
    quotient on the ``(color word, permutation)`` keys, acting through
    :func:`reference_generator_ops`."""
    a = tuple(c for ch in chars for c in ch.xi_colors)
    cyclic = AlgebraElement.basis(a, range(1, params.n + 1))
    ops = reference_generator_ops(params)
    block = oracle._closure(ops, [cyclic.terms])
    seeds, offset = [], 0
    for ch in chars:
        for local, t in enumerate(ch.t_values, start=1):
            seeds.append(left_mult_T(params, offset + local, cyclic) - t * cyclic)
        offset += len(ch.xi_colors)
    hecke_ideal = oracle._closure(ops, [s.terms for s in seeds])
    return oracle._quotient_matrices(params, ops, block, hecke_ideal.rows)[0]


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
            ker = reference_character_kernel(params, current, char)
            if ker:
                counts[char] = len(ker)
                socle_rows.extend(ker)
        assert socle_rows, f"no one-dimensional submodule in dimension {dim}"
        sub_rref, pivots = reference_rref(socle_rows)
        assert len(sub_rref) == sum(counts.values()), "dependent eigenspaces"
        factors.update(counts)

        free = [c for c in range(dim) if c not in pivots]

        def quotient(mat):
            out = [[Fraction(0)] * len(free) for _ in range(len(free))]
            for newcol, col in enumerate(free):
                column = [mat[row][col] for row in range(dim)]
                rep = reference_reduce_mod_rref(sub_rref, pivots, column)
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


@pytest.fixture
def fresh_blocks():
    """An empty block cache before and after a test that patches a rule."""
    oracle._cached_block.cache_clear()
    yield
    oracle._cached_block.cache_clear()


@pytest.mark.parametrize("n, r, u", [
    (2, 2, ()), (3, 2, (Fraction(-5, 6), 0)), (3, 3, (1, 3, 7))])
def test_broken_T_rule_reported_as_reference(monkeypatch, fresh_blocks, n, r, u):
    # T_1 + 1 in place of T_1: a linear defect that keeps color content
    good = oracle._T_rule

    def broken(params, i, key):
        return good(params, i, key) + [(key, 1)] if i == 1 else good(params, i, key)
    monkeypatch.setattr(oracle, "_T_rule", broken)
    p = AlgebraParams(n, r, u)
    got = verify_relations(p)
    assert got == reference_verify_relations(p)
    failing = {rep["check"] for rep in got if not rep["pass"]}
    assert {"quadratic", "cross-commutation"} <= failing
    assert "commute-xi-xi" not in failing


@pytest.mark.parametrize("n, r, u", [
    (2, 2, ()), (3, 2, (Fraction(-5, 6), 0)), (3, 3, (1, 3, 7))])
def test_broken_xi_rule_reported_as_reference(monkeypatch, fresh_blocks, n, r, u):
    # xi_1 acts on color 2 by u_2 + 1, which is not a parameter
    good = oracle._xi_rule

    def broken(params, j, key):
        out = good(params, j, key)
        return out + [(key, 1)] if j == 1 and key[0][0] == 2 else out
    monkeypatch.setattr(oracle, "_xi_rule", broken)
    p = AlgebraParams(n, r, u)
    got = verify_relations(p)
    assert got == reference_verify_relations(p)
    failing = {(rep["check"], rep["instance"]) for rep in got if not rep["pass"]}
    assert {("color-char-poly", "j=1"), ("cross-commutation", "i=1")} <= failing
    assert not any(check == "commute-xi-xi" for check, _ in failing)


def evaluate_word(params, word, x):
    """A word of the compiled relation plan applied to an element, through
    the generator actions installed on the module at call time."""
    for g in reversed(word):
        x = (oracle.left_mult_T(params, g + 1, x) if g < params.n - 1
             else oracle.left_mult_xi(params, g - params.n + 2, x))
    return x


@pytest.mark.parametrize("n, r, u", RELATION_PARAMS)
def test_relation_plan_is_an_integer_multiple_of_the_suite(monkeypatch, n, r, u):
    p = AlgebraParams(n, r, u)
    plan = sorted(oracle._relation_plan(p))
    checks = _relation_suite(
        p,
        T=lambda i, v: oracle.left_mult_T(p, i, v),
        XI=lambda j, v: oracle.left_mult_xi(p, j, v),
        add=lambda a, b: a + b,
        sub=lambda a, b: a - b,
        scale=lambda s, v: s * v)
    assert [(pos, name, instance) for pos, name, instance, _ in plan] == \
        [(pos, name, instance) for pos, (name, instance, _) in enumerate(checks)]
    assert all(type(coeff) is int for *_, steps in plan for _, coeff, _, _ in steps)

    # shift every generator by 1/7 (no parameter here has a denominator
    # divisible by 7) and a random monomial map, so that no relation holds
    # and each residual is a nonzero element to compare
    keys = list(basis_keys(p))
    local = random.Random(7)
    images = {}

    def perturbed(good):
        def act(params, g, x):
            extra = {}
            for key, c in x.terms.items():
                if (good, g, key) not in images:
                    images[good, g, key] = local.choice(keys), local.randint(1, 3)
                target, a = images[good, g, key]
                extra[target] = extra.get(target, 0) + a * c
            return good(params, g, x) + Fraction(1, 7) * x + AlgebraElement(extra)
        return act
    monkeypatch.setattr(oracle, "left_mult_T", perturbed(oracle.left_mult_T))
    monkeypatch.setattr(oracle, "left_mult_xi", perturbed(oracle.left_mult_xi))
    for _ in range(2):
        x = AlgebraElement({key: local.randint(1, 3)
                            for key in local.sample(keys, min(3, len(keys)))})
        for (_, name, instance, steps), (_, _, residual) in zip(plan, checks):
            want = residual(x)
            got = AlgebraElement()
            for word, coeff, _, _ in steps:
                got = got + coeff * evaluate_word(p, word, x)
            assert want, (name, instance)
            key = min(want.terms)
            multiple = Fraction(got.terms.get(key, 0)) / want.terms[key]
            assert multiple and multiple.denominator == 1, (name, instance)
            assert got == multiple * want, (name, instance)


@pytest.mark.parametrize("n, r, expected", [(3, 2, 32), (4, 3, 73)])
def test_module_relations_apply_each_word_once(monkeypatch, n, r, expected):
    p = AlgebraParams(n, r)
    mod = build_shape_module(p, (n,))
    suffixes = {word[k:] for *_, steps in oracle._relation_plan(p)
                for word, *_ in steps for k in range(len(word))}
    calls = []
    act = oracle._act

    def counted(table, v):
        calls.append(table)
        return act(table, v)
    monkeypatch.setattr(oracle, "_act", counted)
    assert module_relations_ok(p, mod)
    assert len(calls) == len(suffixes) == expected


def test_relation_caches_are_bounded():
    """Every cache defined in the rings layer and the oracle has a size
    limit."""
    cached = {f"{module.__name__.rpartition('.')[2]}.{obj.__name__}": obj
              for module in (hopf, ribbons, reptheory, oracle)
              for obj in vars(module).values()
              if callable(getattr(obj, "cache_info", None))
              and getattr(obj, "__module__", None) == module.__name__}
    assert {"oracle._relation_plan", "oracle.lagrange_coeffs",
            "oracle._content_block", "oracle.enumerate_one_dim_characters",
            "hopf._f_label_product", "hopf._h_factor_image",
            "hopf._schur_terms", "ribbons.descent_class_size"} <= cached.keys()
    for name, fn in cached.items():
        assert fn.cache_info().maxsize is not None, name


@pytest.mark.parametrize("n, r, u", RELATION_PARAMS)
def test_block_columns_equal_generator_actions(n, r, u):
    p = AlgebraParams(n, r, u)
    seen = []
    for content in itertools.combinations_with_replacement(range(1, r + 1), n):
        keys, tables = oracle._content_block(p, content)
        assert list(keys) == sorted(keys)
        assert all(sorted(c) == list(content) for c, _ in keys)
        seen.extend(keys)
        index = {key: k for k, key in enumerate(keys)}
        assert len(tables) == 2 * n - 1
        for g, table in enumerate(tables):
            for key, col in zip(keys, table):
                want = (left_mult_T(p, g + 1, B(*key)) if g < n - 1
                        else left_mult_xi(p, g - n + 2, B(*key)))
                assert sorted(col) == sorted((index[k], c)
                                             for k, c in want.terms.items())
    assert sorted(seen) == list(basis_keys(p))


def test_verify_relations_keeps_no_block(fresh_blocks):
    p = AlgebraParams(3, 2)
    build_induced_module(p, [Character((1, 2), (-1,)), Character((2,), ())])
    before = oracle._cached_block.cache_info()
    assert before.currsize == 1
    verify_relations(p)
    assert oracle._cached_block.cache_info() == before


def test_cross_check_builds_each_block_once(fresh_blocks):
    report = cross_check_induction(2, 4)
    contents = {content for n in range(2, 5)
                for content in itertools.combinations_with_replacement((1, 2), n)}
    info = oracle._cached_block.cache_info()
    assert info.misses == len(contents) == 12
    assert info.hits + info.misses == report["cases"] == 136


def test_image_leaving_color_content_block_is_rejected(monkeypatch, fresh_blocks):
    good = oracle._T_rule

    def recolored(params, i, key):
        # a term of color word (1, ..., 1) whatever the input's colors
        return good(params, i, key) + [(((1,) * params.n, key[1]), 1)]
    monkeypatch.setattr(oracle, "_T_rule", recolored)
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


@pytest.mark.parametrize("n, r, u", [
    (1, 1, ()), (1, 3, ()), (2, 2, ()), (3, 2, ()), (2, 3, ()), (3, 3, ()),
    (2, 4, ()), (2, 5, ()), (4, 2, ()), (4, 3, ()), (5, 2, ()),
    (3, 2, (0, 5)), (3, 3, (Fraction(-1, 2), 3, 0))])
def test_census_in_one_pass_equals_per_candidate_loop(n, r, u):
    p = AlgebraParams(n, r, u)
    assert enumerate_one_dim_characters(p) == reference_one_dim_characters(p)


def test_all_zero_T_constant_color_characters_exist():
    census = set(enumerate_one_dim_characters(AlgebraParams(3, 3)))
    for k in (1, 2, 3):
        assert Character((k, k, k), (0, 0)) in census


# ---------------------------------------------------------------------------
# induced modules

def criterion_11_characters(r, max_grade, u=None):
    """The inducing characters of acceptance criterion 11 at one r."""
    for total in range(2, max_grade + 1):
        p = AlgebraParams(total, r, u or ())
        for m in range(1, total):
            for a in enumerate_cycloribbons(m, r):
                for b in enumerate_cycloribbons(total - m, r):
                    yield p, [simple_character(a), simple_character(b)]


def test_induced_module_dimensions():
    p = AlgebraParams(4, 2)
    chars = [Character((1, 2), (-1,)), Character((2, 1), (0,))]
    mod = build_induced_module(p, chars)
    assert mod.dim == 6
    assert all(rep["pass"] for rep in verify_module_relations(p, mod))


def exact_entries(module):
    return [[[(type(x), x) for x in row] for row in mat]
            for mat in module.t_mats + module.xi_mats]


@pytest.mark.parametrize("r, max_grade", [(2, 4), (3, 3)])
def test_induced_modules_equal_dense_reference(monkeypatch, r, max_grade):
    for p, chars in criterion_11_characters(r, max_grade):
        got = build_induced_module(p, chars)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_quotient_matrices", reference_quotient_matrices)
            expected = build_induced_module(p, chars)
        assert exact_entries(got) == exact_entries(expected)


@pytest.mark.parametrize("r, max_grade", [(2, 4), (3, 3)])
def test_induced_modules_equal_reference_ops_build(r, max_grade):
    for p, chars in criterion_11_characters(r, max_grade):
        assert exact_entries(build_induced_module(p, chars)) == \
            exact_entries(reference_induced_module(p, chars))


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
    for p, chars in criterion_11_characters(r, max_grade, u):
        yield p, build_induced_module(p, chars)


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
