"""Structure constants, defining relations, induced modules, and the
cross-checks they provide for the combinatorial layer."""

import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import partial

import pytest

from cycloribbon import hopf, oracle, reptheory, ribbons
from cycloribbon.linalg import SparseEchelon, reduce_mod_rref
from cycloribbon.lincomb import accumulate
from cycloribbon.oracle import (
    AlgebraElement,
    AlgebraParams,
    ExplicitModule,
    OracleError,
    _relation_suite,
    build_induced_module,
    build_shape_module,
    check_socle,
    check_submodule_order,
    composition_factors,
    cross_check_induction,
    enumerate_one_dim_characters,
    left_mult_T,
    left_mult_xi,
    module_relations_ok,
    verify_relations,
)
from cycloribbon.reptheory import Character, simple_character
from cycloribbon.ribbons import (
    ColoredRibbon,
    compositions,
    descent_set,
    enumerate_cycloribbons,
    is_cycloribbon,
)
from test_linalg import (
    mat_add,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    reference_kernel_basis,
    reference_reduce_mod_rref,
    reference_rref,
)

rng = random.Random(99)


def columns(mat) -> tuple:
    """Sparse columns of a dense square matrix: tuples of (row, entry)."""
    return tuple(tuple((i, row[j]) for i, row in enumerate(mat) if row[j])
                 for j in range(len(mat)))


def from_dense(mats) -> ExplicitModule:
    """The module whose generators ``T_1..T_{n-1}, xi_1..xi_n`` act by
    the given dense square matrices (columns act)."""
    return ExplicitModule(tuple(columns(m) for m in mats))


def dense(module) -> list:
    """The module's generators as dense square matrices, in table order."""
    mats = []
    for table in module.tables:
        mat = [[0] * module.dim for _ in range(module.dim)]
        for col, entries in enumerate(table):
            for row, x in entries:
                mat[row][col] = x
        mats.append(mat)
    return mats


def exact_entries(module):
    return [[sorted((row, type(x), x) for row, x in col) for col in table]
            for table in module.tables]


def character_module(params, char):
    values = char.t_values + tuple(params.u[c - 1] for c in char.xi_colors)
    return from_dense([[[v]] for v in values])


def reference_character_kernel(params, mats, char):
    """Dense common kernel of ``g - chi(g)`` over the generators ``g``,
    acting by the dense matrices ``mats``."""
    dim = len(mats[0])
    ident = mat_identity(dim)
    values = char.t_values + tuple(params.u[c - 1] for c in char.xi_colors)
    stacked = []
    for mat, value in zip(mats, values):
        stacked.extend(mat_sub(mat, mat_scale(value, ident)))
    return reference_kernel_basis(stacked, dim)


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


# ---------------------------------------------------------------------------
# the element layer: products in the algebra through the generator actions

def basis_keys(params):
    """All (color word, permutation) basis indices, in lexicographic order."""
    for colors in itertools.product(range(1, params.r + 1), repeat=params.n):
        for perm in itertools.permutations(range(1, params.n + 1)):
            yield (colors, perm)


def one(params):
    """The unit: the Lagrange projectors resolve the identity."""
    ident = tuple(range(1, params.n + 1))
    return AlgebraElement({(c, ident): 1 for c in
                           itertools.product(range(1, params.r + 1),
                                             repeat=params.n)})


def sorting_word(perm):
    """Indices i_1, i_2, ... such that applying ``left_mult_T`` in that
    order to an element implements left multiplication by ``T_perm``."""
    w, word = list(perm), []
    while True:
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i + 1)
                break
        else:
            return word


def multiply(params, x, y):
    """Product in the algebra: expand ``x`` over its basis terms, apply
    each ``T_w`` to ``y`` letter by letter, then project on the color."""
    total = {}
    for (c, w), coeff in x.terms.items():
        z = y
        for i in sorting_word(w):
            z = oracle.left_mult_T(params, i, z)
        accumulate(total, ((k, cf) for k, cf in z.terms.items() if k[0] == c), coeff)
    return AlgebraElement(total)


def verify_module_relations(params, module):
    """One report per relation instance on a module, without counterexamples."""
    return [{"check": name, "instance": instance,
             "pass": not residual, "counterexample": None}
            for name, instance, residual in oracle._table_residuals(params, module.tables)]


def reference_generator_ops(params):
    """Left multiplication by ``T_1..T_{n-1}``, then ``xi_1..xi_n``, as
    maps of dict vectors over the ``(color word, permutation)`` keys,
    through :class:`AlgebraElement` and the generator actions installed on
    the module at call time."""
    def on_dicts(name, k):
        return lambda v: getattr(oracle, name)(params, k, AlgebraElement(v)).terms
    return ([on_dicts("left_mult_T", i) for i in range(1, params.n)]
            + [on_dicts("left_mult_xi", j) for j in range(1, params.n + 1)])


def quotient_module(ops, ideal: SparseEchelon, seeds) -> ExplicitModule:
    """The module spanned by the seeds modulo the span of ``ideal``, which
    every op (a map of dict vectors) must keep: the closure of the seeds
    under the ops, every vector reduced modulo ``ideal``, with the
    columns of the ops over its echelon rows."""
    reduced = [lambda v, op=op: reduce_mod_rref(ideal, op(v)) for op in ops]
    span = oracle._closure(reduced, [reduce_mod_rref(ideal, s) for s in seeds])
    return ExplicitModule(tuple(
        tuple(tuple(span.coordinates(op(row)).items()) for row in span.rows)
        for op in reduced))


def reference_ideal_quotient_module(params, chars, quotient=quotient_module):
    """Reference for :func:`build_induced_module`: the quotient of the left
    regular representation by the left ideal of ``g - chi(g)`` over the
    generators of the parabolic.  The color constraints cut it down to
    the left ideal of ``B[a, id]``, and the module is the closure of
    ``B[a, id]`` modulo the left ideal ``H`` of the Hecke constraints,
    both closed under the tables of the color-content block.  The rank
    of the left ideal of ``B[a, id]``, ``|H| + dim``, must be ``n!``."""
    a = tuple(c for ch in chars for c in ch.xi_colors)
    # the value of each T_i inside a factor, None between two factors
    t_of = [t for ch in chars if ch.xi_colors
            for t in (*ch.t_values, None)][:-1]
    keys, tables = oracle._content_block(params, tuple(sorted(a)))
    ops = [partial(oracle._act, table) for table in tables]
    cyclic = keys.index((a, tuple(range(1, params.n + 1))))
    seeds = [accumulate(dict(tables[i][cyclic]), ((cyclic, -t),))
             for i, t in enumerate(t_of) if t is not None]
    hecke_ideal = oracle._closure(ops, seeds)
    module = quotient(ops, hecke_ideal, [{cyclic: 1}])
    rank = len(hecke_ideal) + module.dim
    if rank != math.factorial(params.n):
        raise OracleError(f"left ideal of B[a, id] has rank {rank}, "
                          f"expected {math.factorial(params.n)}")
    return module


def reference_quotient_module(ops, ideal, seeds):
    """Reference for :func:`quotient_module`: normal forms modulo a
    dense Fraction row echelon form of the ideal rows, their closure, then
    the columns of the ops as dense coordinates over the closure's rows,
    read off one dense row echelon form of those rows beside every image."""
    keys, queue = set(), [k for v in (*seeds, *ideal.rows) for k in v]
    while queue:       # every key the ops reach from the seeds and the ideal
        key = queue.pop()
        if key not in keys:
            keys.add(key)
            queue.extend(k for op in ops for k in op({key: 1}))
    keys = sorted(keys)
    ideal_rref, pivots = reference_rref(
        [[row.get(k, 0) for k in keys] for row in ideal.rows])

    def normal_form(v):
        dense_v = reference_reduce_mod_rref(ideal_rref, pivots,
                                            [v.get(k, 0) for k in keys])
        return accumulate({}, zip(keys, dense_v))

    reduced = [lambda v, op=op: normal_form(op(v)) for op in ops]
    span = oracle._closure(reduced, [normal_form(s) for s in seeds])
    dim = len(span)
    columns_in = span.rows + [op(row) for op in reduced for row in span.rows]
    system, sys_pivots = reference_rref(
        [[v.get(k, 0) for v in columns_in] for k in keys])
    # the rows are independent and every image lies in their span
    assert sys_pivots == list(range(dim))
    images = [tuple((i, x.numerator if x.denominator == 1 else x)
                    for i, row in enumerate(system) if (x := row[col]))
              for col in range(dim, len(columns_in))]
    return ExplicitModule(tuple(tuple(images[g * dim:(g + 1) * dim])
                                for g in range(len(ops))))


def induced_module_from_seeds(params, seeds, expected_dim=None):
    """Reference construction: quotient of the whole left regular
    representation by the left ideal generated by the seeds.  Exponential
    in size, used to cross-validate the staged constructions."""
    ops = reference_generator_ops(params)
    ideal = oracle._closure(ops, [s.terms for s in seeds])
    module = reference_quotient_module(ops, ideal,
                                       [{key: 1} for key in basis_keys(params)])
    if expected_dim is not None and module.dim != expected_dim:
        raise OracleError(
            f"induced module has dimension {module.dim}, expected {expected_dim}")
    return module


def reference_induced_module(params, chars):
    """Reference for :func:`reference_ideal_quotient_module`: the same
    closure modulo the Hecke ideal on the ``(color word, permutation)``
    keys, acting through :func:`reference_generator_ops`."""
    a = tuple(c for ch in chars for c in ch.xi_colors)
    cyclic = AlgebraElement.basis(a, range(1, params.n + 1))
    ops = reference_generator_ops(params)
    seeds, offset = [], 0
    for ch in chars:
        for local, t in enumerate(ch.t_values, start=1):
            seeds.append(left_mult_T(params, offset + local, cyclic) - t * cyclic)
        offset += len(ch.xi_colors)
    hecke_ideal = oracle._closure(ops, [s.terms for s in seeds])
    return reference_quotient_module(ops, hecke_ideal, [cyclic.terms])


def reference_coset_induced_module(params, chars) -> ExplicitModule:
    """Reference for :func:`build_induced_module`: its own coset reading
    and its own certificate of ``e_id``, as before the one builder
    :func:`oracle._induce`."""
    sizes = [len(ch.xi_colors) for ch in chars]
    a, chi = (), {}      # chi: table index -> value on e_id
    for k, ch in enumerate(chars):
        chi.update(zip(range(len(a), len(a) + sizes[k] - 1), ch.t_values))
        a += tuple(ch.xi_colors)
    keys = [(tuple(x for _, x in sorted(zip(s, a))), s)
            for s in oracle._coset_words(sizes)]
    reading = defaultdict(tuple)
    for k, (c, s) in enumerate(keys):
        reading[c, s] = ((k, 1),)
        for g, t in chi.items():      # T_{g+1} inside a factor
            reading[c, s[:g] + (s[g + 1], s[g]) + s[g + 2:]] = ((k, t),)
    module = oracle._read_module(params, keys, reading)
    chi.update((params.n - 1 + j, params.u[c - 1]) for j, c in enumerate(a))
    expected = math.factorial(params.n) // math.prod(map(math.factorial, sizes))
    if module.dim != expected:
        raise OracleError(
            f"induced module has dimension {module.dim}, expected {expected}")
    for g, value in chi.items():
        if module.tables[g][0] != (((0, value),) if value else ()):
            name = f"T_{g + 1}" if g < params.n - 1 else f"xi_{g + 2 - params.n}"
            raise OracleError(f"{name} acts on e_id by {module.tables[g][0]}, "
                              f"not {value}")
    ops = [partial(oracle._act, t) for t in module.tables]
    generated = len(oracle._closure(ops, [{0: 1}]))
    if generated != module.dim:
        raise OracleError(f"e_id generates a submodule of dimension {generated}, "
                          f"not the whole module of dimension {module.dim}")
    if not module_relations_ok(params, module):
        raise OracleError("induced module violates the defining relations")
    return module


def reference_coset_shape_module(params, shape) -> ExplicitModule:
    """Reference for :func:`build_shape_module`: its own reading of
    ``B[c', w'] (x) 1 = L_{c'} (x) T_{w'} 1 = chi(T_{w'}) e_{c'}`` and the
    relation check alone, as before the one builder :func:`oracle._induce`."""
    ds = descent_set(shape)
    ident = tuple(range(1, params.n + 1))
    chi = {ident: 1, **{oracle._swap_values(ident, i): -1 if i in ds else 0
                        for i in range(1, params.n)}}
    words = list(itertools.product(range(1, params.r + 1), repeat=params.n))
    module = oracle._read_module(params, [(c, ident) for c in words], defaultdict(tuple, {
        (c, w): ((k, x),) for k, c in enumerate(words) for w, x in chi.items()}))
    if not module_relations_ok(params, module):
        raise OracleError("shape module violates the defining relations")
    return module


def object_pattern(module) -> list:
    """Each column and each entry of the tables as the position of the first
    one that is the same object: equal for two modules exactly when they
    store the same objects once."""
    first = {}
    return [first.setdefault(id(x), len(first))
            for table in module.tables for col in table for x in (col, *col)]


def assert_same_tables(got, want):
    # tuple for tuple, entry order, int or Fraction and shared objects included
    assert got.tables == want.tables and repr(got) == repr(want)
    assert object_pattern(got) == object_pattern(want)


def peel_composition_factors(params, module):
    """Reference for :func:`composition_factors`: repeatedly split off
    the socle (the span of all joint eigenvectors) and pass to the
    quotient."""
    factors = Counter()
    mats = dense(module)
    dim = module.dim
    candidates = enumerate_one_dim_characters(params)

    while dim > 0:
        socle_rows, counts = [], {}
        for char in candidates:
            ker = reference_character_kernel(params, mats, char)
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

        mats = [quotient(m) for m in mats]
        dim = len(free)

    assert sum(factors.values()) == module.dim
    return factors


def reference_lagrange_coeffs(u, k) -> tuple:
    """The interpolation polynomial taking value 1 at u_k and 0 at the
    other parameters, as ``(numerators, denominator)``: integer
    coefficients in ascending degree, all over one positive integer."""
    poly, value = [1], 1
    for l, ul in enumerate(u, start=1):
        if l == k:
            continue
        poly = [a - ul * b for a, b in zip([0] + poly, poly + [0])]
        value *= u[k - 1] - ul
    coeffs = [Fraction(a) / value for a in poly]
    denom = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * denom) for c in coeffs), denom


def reference_weight_projectors(params, mats):
    """``{c: L_c}`` over the color words c whose dense projector
    ``L_c = prod_j l_{c_j}(xi_j)`` is nonzero on the module acting by the
    dense matrices ``mats``, each ``l_k(xi)`` by Horner's rule on the
    integer numerators of :func:`reference_lagrange_coeffs`.  Words are
    grown one position at a time and dropped as soon as their partial
    product vanishes."""
    ident = mat_identity(len(mats[0]))
    weights = {(): ident}
    for xi in mats[params.n - 1:]:
        projectors = []
        for k in range(1, params.r + 1):
            nums, denom = reference_lagrange_coeffs(params.u, k)
            acc = mat_scale(nums[-1], ident)
            for a in reversed(nums[:-1]):
                acc = mat_add(mat_mul(xi, acc), mat_scale(a, ident))
            projectors.append(mat_scale(Fraction(1, denom), acc))
        weights = {c + (k,): prod
                   for c, acc in weights.items()
                   for k, proj in enumerate(projectors, start=1)
                   if not mat_is_zero(prod := mat_mul(proj, acc))}
    return weights


def reference_composition_factors(params, module):
    """Reference for :func:`composition_factors`: the trace of each dense
    idempotent ``e_K = pi_{w0(K)} L_c``, then the same Moebius inversion."""
    mats = dense(module)
    census = set(enumerate_one_dim_characters(params))
    factors = Counter()
    for c, proj in reference_weight_projectors(params, mats).items():
        equal = [i for i in range(1, params.n) if c[i - 1] == c[i]]
        subsets = [frozenset(k) for size in range(len(equal) + 1)
                   for k in itertools.combinations(equal, size)]
        traces = {}
        for k in subsets:
            e = proj
            for i in sorted(k) * len(k):
                e = mat_add(e, mat_mul(mats[i - 1], e))
            if mat_mul(e, e) != e:
                raise OracleError(
                    f"e_K = pi_w0(K) L_c is not idempotent for K = {sorted(k)}, c = {c}")
            traces[k] = int(sum(e[d][d] for d in range(module.dim)))
        for s in subsets:
            mult = sum((-1) ** len(k - s) * traces[k] for k in subsets if k >= s)
            if mult < 0:
                raise OracleError(
                    f"negative multiplicity {mult} at weight {c}, t = 0 on {sorted(s)}")
            if mult:
                char = Character(c, tuple(
                    -1 if c[i - 1] < c[i] or (c[i - 1] == c[i] and i not in s) else 0
                    for i in range(1, params.n)))
                if char not in census:
                    raise OracleError(f"factor {char} is not a one-dimensional character")
                factors[char] += mult
    if sum(factors.values()) != module.dim:
        raise OracleError(f"composition factors count {sum(factors.values())}")
    return factors


def reference_shape_module(params, shape):
    """Reference for :func:`build_shape_module`: dense matrices filled
    entry by entry, then their columns."""
    ds = descent_set(shape)
    words = list(itertools.product(range(1, params.r + 1), repeat=params.n))
    index = {w: k for k, w in enumerate(words)}
    dim = len(words)
    mats = []
    for i in range(1, params.n):
        t = -1 if i in ds else 0
        mat = [[0] * dim for _ in range(dim)]
        for w in words:
            col = index[w]
            ws = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
            if w[i - 1] < w[i]:
                mat[index[ws]][col] += t
                mat[col][col] += -1
            elif w[i - 1] == w[i]:
                mat[col][col] += t
            else:
                mat[index[ws]][col] += t + 1
        mats.append(mat)
    for j in range(1, params.n + 1):
        mat = [[0] * dim for _ in range(dim)]
        for w in words:
            mat[index[w]][index[w]] = params.u[w[j - 1] - 1]
        mats.append(mat)
    return from_dense(mats)


def reference_check_socle(params, shape):
    """Reference for :func:`check_socle`: dense kernels, one dense
    Fraction row echelon form of all of them, and unit rows to compare."""
    mats = dense(build_shape_module(params, shape))
    words = list(itertools.product(range(1, params.r + 1), repeat=params.n))
    socle_rows = []
    for char in enumerate_one_dim_characters(params):
        socle_rows.extend(reference_character_kernel(params, mats, char))
    got = reference_rref(socle_rows)[0] if socle_rows else []
    unit = mat_identity(len(words))
    expected = [unit[k] for k, w in enumerate(words)
                if is_cycloribbon(ColoredRibbon(tuple(shape), w))]
    ok = got == expected
    return {"check": "socle", "instance": f"shape={shape}", "pass": ok,
            "counterexample": None if ok else {
                "socle_dim": len(got), "cycloribbon_count": len(expected)}}


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
                bad = {"basis_element": key, "residual_terms": len(res.terms)}
                break
        reports.append({"check": name, "instance": instance,
                        "pass": bad is None, "counterexample": bad})
    return reports


def reference_verify_module_relations(params, module):
    """Reference for :func:`verify_module_relations`: the relation suite
    on the dense identity matrix with dense matrix arithmetic."""
    mats = dense(module)
    checks = _relation_suite(
        params,
        T=lambda i, v: mat_mul(mats[i - 1], v),
        XI=lambda j, v: mat_mul(mats[params.n + j - 2], v),
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
def test_broken_xi_rule_reported_as_reference(monkeypatch, n, r, u):
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


def content_blocks(params):
    for content in itertools.combinations_with_replacement(
            range(1, params.r + 1), params.n):
        yield oracle._content_block(params, content)


def right_action(params, j, x):
    """``x`` times ``T_j`` on the right, through the left generator actions
    installed on the module at call time, as :func:`multiply` does."""
    s_j = oracle._swap_values(tuple(range(1, params.n + 1)), j)
    t_j = AlgebraElement({(c, s_j): 1 for c in itertools.product(
        range(1, params.r + 1), repeat=params.n)})
    return multiply(params, x, t_j)


@pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (4, 2)])
def test_right_steps_are_right_multiplication(n, r):
    p = AlgebraParams(n, r)
    rho, firsts = oracle._right_steps(n)
    perms = list(itertools.permutations(range(1, n + 1)))
    assert len(rho) == len(firsts) == n - 1
    assert all(len(table) == len(perms) for table in rho)
    for c in itertools.product(range(1, r + 1), repeat=n):
        for j in range(1, n):
            for w, col in zip(perms, rho[j - 1]):
                assert len(col) == 1
                assert right_action(p, j, B(c, w)) == \
                    AlgebraElement({(c, perms[t]): a for t, a in col})
    # each permutation but the identity once, under its first descent j,
    # with its parent w.s_j, one shorter, which rho_j sends to w
    assert sorted(q for pairs in firsts for q, _ in pairs) == list(range(1, len(perms)))
    for j, pairs in enumerate(firsts, start=1):
        for q, t in pairs:
            w = perms[q]
            assert j == min(i for i in range(1, n) if w[i - 1] > w[i])
            assert perms[t] == w[:j - 1] + (w[j], w[j - 1]) + w[j + 1:]
            assert rho[j - 1][t] == ((q, 1),)


@pytest.mark.parametrize("n", range(1, 6))
def test_right_steps_satisfy_the_hecke_relations(n):
    tables, _ = oracle._right_steps(n)

    def rho(j, v):
        # by accumulate, not by the kernel under test
        return accumulate({}, ((t, s * a) for p, a in v.items()
                               for t, s in tables[j - 1][p]))

    def rhos(word, v):
        for j in word:
            v = rho(j, v)
        return v
    for p in range(math.factorial(n)):
        v = {p: 1}
        for j in range(1, n):
            assert rhos([j, j], v) == accumulate({}, rho(j, v).items(), -1)
            if j < n - 1:
                assert rhos([j, j + 1, j], v) == rhos([j + 1, j, j + 1], v)
            for i in range(j + 2, n):
                assert rhos([i, j], v) == rhos([j, i], v)


def plus_key_where(rule, g, where):
    """A defect of a displayed rule that keeps color content: generator
    ``g`` of the rule gets the term ``B[c, w]`` on each ``B[c, w]`` with
    ``where(params, (c, w))``."""
    def broken(params, i, key):
        out = rule(params, i, key)
        return out + [(key, 1)] if i == g and where(params, key) else out
    return broken


def at_identity(params, key):
    return key[1] == tuple(range(1, params.n + 1))


# name -> (rule, generator, where, predicate of the color contents whose
# block fails the certificate); the first two are the defects of the
# test_broken_*_reported_as_reference tests, which commute with the
# right action, the others do not
DEFECTS = {
    "T1-plus-one": ("_T_rule", 1, lambda p, key: True, lambda content: False),
    "xi1-on-color-2": ("_xi_rule", 1, lambda p, key: key[0][0] == 2,
                       lambda content: False),
    "T1-at-identity": ("_T_rule", 1, at_identity, lambda content: True),
    "T1-at-identity-first-color-1": (
        "_T_rule", 1, lambda p, key: at_identity(p, key) and key[0][0] == 1,
        lambda content: 1 in content),
    # invisible from the seed columns: the seed path would miss it
    "xi1-at-longest": ("_xi_rule", 1,
                       lambda p, key: key[1] == tuple(range(p.n, 0, -1)),
                       lambda content: True),
}


def install_defect(monkeypatch, name):
    rule, g, where, fails = DEFECTS[name]
    monkeypatch.setattr(oracle, rule, plus_key_where(getattr(oracle, rule), g, where))
    return fails


def record_columns(monkeypatch):
    """The ``columns`` argument of every ``_table_residuals`` call."""
    calls = []
    residuals = oracle._table_residuals

    def recorded(params, tables, columns=None):
        calls.append((len(tables[-1]), columns))
        return residuals(params, tables, columns)
    monkeypatch.setattr(oracle, "_table_residuals", recorded)
    return calls


def reference_right_steps(n):
    """``T_w T_j`` by the 0-Hecke rule, with ``w`` given by its position
    ``p`` in ``itertools.permutations`` order: ``steps[j - 1][p]`` is
    ``(position of w.s_j, 1)`` when ``w(j) < w(j+1)``, else ``(p, -1)``.
    ``parent[p]`` is ``(j, position of w.s_j)`` for the first descent
    ``j`` of ``w``, None for ``id``."""
    perms = list(itertools.permutations(range(1, n + 1)))
    index = {w: p for p, w in enumerate(perms)}

    def times_s(w, j):
        return w[:j - 1] + (w[j], w[j - 1]) + w[j + 1:]
    steps = tuple(tuple((index[times_s(w, j)], 1) if w[j - 1] < w[j] else (p, -1)
                        for p, w in enumerate(perms)) for j in range(1, n))
    parent = tuple(next(((j, index[times_s(w, j)]) for j in range(1, n)
                         if w[j - 1] > w[j]), None) for w in perms)
    return steps, parent


def reference_right_equivariant(n, tables):
    """Reference for :func:`oracle._right_equivariant`: one column at a
    time, the column at ``(c, w)`` against ``rho_j`` of the column at
    ``(c, w.s_j)`` for the first descent ``j`` of ``w``, each image
    accumulated entry by entry."""
    steps, parent = reference_right_steps(n)
    nf = len(parent)
    for table in tables:
        for k, col in enumerate(table):
            p = k % nf
            if not p:
                continue
            j, q = parent[p]
            step, image = steps[j - 1], {}
            get = image.get
            for row, a in table[k - p + q]:
                rp = row % nf
                t, sign = step[rp]
                t += row - rp
                x = get(t, 0) + sign * a
                if x:
                    image[t] = x
                else:
                    del image[t]
            if image != dict(col):
                return False
    return True


@pytest.mark.parametrize("n, r, u", RELATION_PARAMS)
def test_right_equivariant_equals_reference(n, r, u):
    blocks, steps = list(content_blocks(AlgebraParams(n, r, u))), oracle._right_steps(n)
    assert [oracle._right_equivariant(steps, tables) for _, tables in blocks] \
        == [reference_right_equivariant(n, tables) for _, tables in blocks]


@pytest.mark.parametrize("n, r, u", RELATION_PARAMS)
def test_real_rules_pass_the_certificate_and_take_the_seed_path(monkeypatch, n, r, u):
    p = AlgebraParams(n, r, u)
    steps = oracle._right_steps(n)
    assert all(oracle._right_equivariant(steps, tables) for _, tables in content_blocks(p))
    calls = record_columns(monkeypatch)
    verify_relations(p)
    assert len(calls) == math.comb(n + r - 1, n)
    assert all(columns == range(0, dim, math.factorial(n)) for dim, columns in calls)


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("n, r, u", [
    (2, 2, ()), (3, 2, (Fraction(-5, 6), 0)), (3, 3, (1, 3, 7))])
def test_defects_reported_as_reference(monkeypatch, n, r, u, defect):
    """A block that fails the certificate is checked on every column, and
    every report equals the reference, on either path."""
    fails = install_defect(monkeypatch, defect)
    p = AlgebraParams(n, r, u)
    contents = list(itertools.combinations_with_replacement(range(1, r + 1), n))
    blocks = list(content_blocks(p))
    steps = oracle._right_steps(n)
    assert [oracle._right_equivariant(steps, tables) for _, tables in blocks] \
        == [reference_right_equivariant(n, tables) for _, tables in blocks] \
        == [not fails(content) for content in contents]
    calls = record_columns(monkeypatch)
    got = verify_relations(p)
    assert got == reference_verify_relations(p)
    assert not all(rep["pass"] for rep in got)
    assert [columns is None for _, columns in calls] == list(map(fails, contents))


@pytest.mark.parametrize("n, r, u", [
    (3, 2, (Fraction(-5, 6), 0)), (3, 3, (Fraction(-1, 2), 3, 0)), (4, 2, ())])
def test_seed_residuals_are_the_seed_columns_of_all_residuals(n, r, u):
    # T_1 doubled plus 1/7 on the regular representation, and the true tables
    p = AlgebraParams(n, r, u)
    nf, failing = math.factorial(n), 0
    for _, tables in content_blocks(p):
        dim = len(tables[-1])
        seeds = range(0, dim, nf)
        broken = (tuple(tuple(accumulate({k: Fraction(1, 7)}, col, 2).items())
                        for k, col in enumerate(tables[0])),) + tables[1:]
        for t in (tables, broken):
            got = oracle._table_residuals(p, t, seeds)
            full = oracle._table_residuals(p, t)
            assert [(name, instance, stored_exactly(res)) for name, instance, res in got] \
                == [(name, instance, stored_exactly({key: x for key, x in res.items()
                                                     if key // dim in seeds}))
                    for name, instance, res in full]
            failing += sum(bool(res) for *_, res in got)
    assert failing


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
    plan = oracle._relation_plan(p)
    checks = _relation_suite(
        p,
        T=lambda i, v: oracle.left_mult_T(p, i, v),
        XI=lambda j, v: oracle.left_mult_xi(p, j, v),
        add=lambda a, b: a + b,
        sub=lambda a, b: a - b,
        scale=lambda s, v: s * v)
    assert [(name, instance) for name, instance, _ in plan] == \
        [(name, instance) for name, instance, _ in checks]
    assert all(type(coeff) is int for *_, terms in plan for _, coeff in terms)

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
        for (name, instance, terms), (_, _, residual) in zip(plan, checks):
            want = residual(x)
            got = AlgebraElement()
            for word, coeff in terms:
                got = got + coeff * evaluate_word(p, word, x)
            assert want, (name, instance)
            key = min(want.terms)
            multiple = Fraction(got.terms.get(key, 0)) / want.terms[key]
            assert multiple and multiple.denominator == 1, (name, instance)
            assert got == multiple * want, (name, instance)


@pytest.mark.parametrize("n, r, u", RELATION_PARAMS)
def test_cross_commutation_plan_equals_reference_lagrange_coeffs(n, r, u):
    """Each compiled cross-commutation polynomial, read back from its terms,
    is ``T_i xi_i - xi_{i+1} T_i - sum_{c1 < c2} (u_c2 - u_c1) l_c1(xi_i)
    l_c2(xi_{i+1})`` with the projectors from their integer coefficients,
    times the lcm of its denominators."""
    p = AlgebraParams(n, r, u)
    coeffs = [None] + [reference_lagrange_coeffs(p.u, k) for k in range(1, r + 1)]
    got = {instance: terms for name, instance, terms in oracle._relation_plan(p)
           if name == "cross-commutation"}
    assert list(got) == [f"i={i}" for i in range(1, n)]
    for i in range(1, n):
        t, x, y = i - 1, n + i - 2, n + i - 1       # T_i, xi_i, xi_{i+1}
        want = {(t, x): 1, (y, t): -1}
        for c1, c2 in itertools.combinations(range(1, r + 1), 2):
            (nums1, d1), (nums2, d2) = coeffs[c1], coeffs[c2]
            accumulate(want, (((x,) * a + (y,) * b,
                               -(p.u[c2 - 1] - p.u[c1 - 1]) * Fraction(a1 * a2, d1 * d2))
                              for a, a1 in enumerate(nums1)
                              for b, a2 in enumerate(nums2)))
        lcm = math.lcm(*(Fraction(c).denominator for c in want.values()))
        terms = got[f"i={i}"]
        assert len(dict(terms)) == len(terms)
        assert dict(terms) == {word: c * lcm for word, c in want.items()}


def reference_act(table, v):
    """Reference for :func:`oracle._act` without ``out``: every entry of
    ``G v`` sent through :func:`accumulate` into a new dict."""
    dim = len(table)
    return accumulate({}, ((key - row + k, c * a) for key, c in v.items()
                           for row in (key % dim,) for k, a in table[row]))


def random_entry(local):
    """An int, a Fraction (integral or not) or an explicit zero."""
    return local.choice([0, local.randint(-3, 3),
                         Fraction(local.randint(-6, 6), local.randint(1, 3))])


def stored_exactly(op):
    """Entries with their types: equal values of different types differ."""
    return sorted((key, type(x), x) for key, x in op.items())


def test_act_equals_reference_kernel():
    local = random.Random(23)
    for _ in range(300):
        dim, width = local.randint(1, 5), local.randint(1, 3)
        # a row may repeat within a column, so that terms cancel
        table = tuple(tuple((local.randrange(dim), random_entry(local))
                            for _ in range(local.randint(0, 4)))
                      for _ in range(dim))
        v = accumulate({}, ((local.randrange(dim * width), random_entry(local))
                            for _ in range(local.randint(0, 6))))
        want = reference_act(table, v)
        assert stored_exactly(oracle._act(table, v)) == stored_exactly(want)
        scale = local.choice([1, -1, 2, Fraction(1, 3), Fraction(-3, 2)])
        outs = [accumulate({}, ((local.randrange(dim * width), random_entry(local))
                                for _ in range(local.randint(0, 6)))),
                # cancels G v in full, or all but one entry of it
                accumulate({}, want.items(), -scale),
                accumulate({}, list(want.items())[1:], -scale)]
        for out in outs:
            expected = accumulate(dict(out), want.items(), scale)
            got = oracle._act(table, v, out, scale)
            assert got is out
            assert stored_exactly(got) == stored_exactly(expected)
        assert not outs[1]
        for op in (want, *outs):
            assert all(x and not (type(x) is Fraction and x.denominator == 1)
                       for x in op.values())


def test_act_keeps_zero_entries_and_cancellations_out():
    table = (((0, 0), (1, 2), (1, -2)), ((0, Fraction(1, 2)),))
    v = {0: 1, 1: 2, 3: Fraction(2, 3)}
    got = oracle._act(table, v, {0: -1, 2: Fraction(-1, 3)}, 1)
    assert got == {} and stored_exactly(oracle._act(table, v)) == \
        [(0, int, 1), (2, Fraction, Fraction(1, 3))]


@pytest.mark.parametrize("n, r, calls, kept", [(3, 2, 47, 7), (4, 3, 111, 21)])
def test_relation_check_acts_once_per_term_and_proper_suffix(monkeypatch, n, r,
                                                            calls, kept):
    """Each nonempty term of the plan is one ``_act`` into its residual, on
    the operator of its proper suffix, and each nonempty proper suffix is
    one ``_act`` kept in the memo; the empty word, the identity operator,
    costs none, also where it is a term (a constant term, as in the color
    polynomials)."""
    p = AlgebraParams(n, r)
    mod = build_shape_module(p, (n,))
    words = [word for *_, terms in oracle._relation_plan(p) for word, _ in terms]
    assert () in words
    suffixes = {word[k:] for word in words for k in range(1, len(word))}
    into_residual, new = [], []
    act = oracle._act

    def counted(table, v, *out_scale):
        result = act(table, v, *out_scale)
        (into_residual if out_scale else new).append(result)
        return result
    monkeypatch.setattr(oracle, "_act", counted)
    assert module_relations_ok(p, mod)
    assert len(into_residual) + len(new) == calls
    assert len(into_residual) == sum(map(bool, words))
    assert len(new) == len(suffixes) == kept


@pytest.mark.parametrize("n, r, expected", [(3, 2, 32), (4, 3, 73)])
def test_module_relations_apply_each_word_once(monkeypatch, n, r, expected):
    """Each nonempty suffix of a term word is formed from one pair: the
    table of its first generator and the one memo operator of the rest of
    the word.  A word that is a term of several relations, or a term and
    a proper suffix, is applied again from that same pair."""
    p = AlgebraParams(n, r)
    mod = build_shape_module(p, (n,))
    suffixes = {word[k:] for *_, terms in oracle._relation_plan(p)
                for word, _ in terms for k in range(len(word))}
    calls = []
    act = oracle._act

    def counted(table, v, *out_scale):
        calls.append((table, v))  # kept alive, so that ids stay distinct
        return act(table, v, *out_scale)
    monkeypatch.setattr(oracle, "_act", counted)
    assert module_relations_ok(p, mod)
    assert len({(id(table), id(v)) for table, v in calls}) == len(suffixes) \
        == expected


@pytest.mark.parametrize("n, r, shared", [(3, 2, 13), (4, 3, 27)])
def test_relation_check_materializes_only_shared_words(monkeypatch, n, r, shared):
    """Only a word shared by several terms is kept as an operator of its
    own: the memo holds the proper suffixes of term words, a subset of the
    words that are terms more than once or proper suffixes.  A word that
    is a term once and a proper suffix of none only goes into its
    residual."""
    p = AlgebraParams(n, r)
    mod = build_shape_module(p, (n,))
    uses = Counter(word for *_, terms in oracle._relation_plan(p)
                   for word, _ in terms)
    proper = {word[k:] for word in uses for k in range(1, len(word))}
    suffixes = {word[k:] for word in uses for k in range(len(word))}
    shared_words = {word for word in suffixes if uses[word] > 1 or word in proper}
    new = []
    act = oracle._act

    def counted(table, v, *out_scale):
        result = act(table, v, *out_scale)
        if not out_scale:
            new.append(result)
        return result
    monkeypatch.setattr(oracle, "_act", counted)
    assert module_relations_ok(p, mod)
    assert proper <= shared_words and len(shared_words) == shared
    assert len(new) == len(proper) < shared


def reference_table_residuals(params, tables):
    """Reference for :func:`oracle._table_residuals`: every word of the
    plan applied to the identity operator by :func:`reference_act`, and
    each residual one sum over its terms' operators."""
    dim = len(tables[-1])
    ops = {(): {k * dim + k: 1 for k in range(dim)}}
    out = []
    for name, instance, terms in oracle._relation_plan(params):
        residual = {}
        for word, coeff in terms:
            for k in range(len(word) - 1, -1, -1):
                if word[k:] not in ops:
                    ops[word[k:]] = reference_act(tables[word[k]], ops[word[k + 1:]])
            accumulate(residual, ops[word].items(), coeff)
        out.append((name, instance, residual))
    return out


@pytest.mark.parametrize("n, r, u", [
    (3, 2, (Fraction(-5, 6), 0)), (3, 3, (Fraction(-1, 2), 3, 0)), (4, 2, ())])
def test_table_residuals_equal_reference_sums(n, r, u):
    # T_1 doubled plus 1/7, so that most residuals are nonzero, some
    # with Fraction entries
    p = AlgebraParams(n, r, u)
    for shape in compositions(n):
        tables = build_shape_module(p, shape).tables
        broken = (tuple(accumulate({k: Fraction(1, 7)}, col, 2).items()
                        for k, col in enumerate(tables[0])),) + tables[1:]
        for t in (tables, broken):
            got, want = ([(name, instance, stored_exactly(res))
                          for name, instance, res in residuals(p, t)]
                         for residuals in (oracle._table_residuals,
                                           reference_table_residuals))
            assert got == want
        assert any(res for *_, res in got)


def test_relation_caches_are_bounded():
    """Every cache defined in the rings layer and the oracle has a size
    limit."""
    cached = {f"{module.__name__.rpartition('.')[2]}.{obj.__name__}": obj
              for module in (hopf, ribbons, reptheory, oracle)
              for obj in vars(module).values()
              if callable(getattr(obj, "cache_info", None))
              and getattr(obj, "__module__", None) == module.__name__}
    assert cached.keys() == {
        "oracle._relation_plan", "oracle.enumerate_one_dim_characters",
        "hopf._f_label_product", "hopf._r_label_coproduct",
        "reptheory._column_side",
        "ribbons.descent_class_size"}
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


def reference_content_block(params, content):
    """Reference for :func:`oracle._content_block`: its own index of the
    block's keys, the rule's image accumulated on keys and then indexed,
    equal entries and columns stored once."""
    keys = tuple((c, w) for c in sorted(set(itertools.permutations(content)))
                 for w in itertools.permutations(range(1, params.n + 1)))
    index = {key: k for k, key in enumerate(keys)}
    share = {}

    def column(rule, g, key):
        image = accumulate({}, rule(params, g, key))
        try:
            col = tuple(share.setdefault(e, e) for e in
                        ((index[k], c) for k, c in image.items()))
        except KeyError:
            raise OracleError(
                f"B{key} is mapped outside its color-content block") from None
        return share.setdefault(col, col)

    generators = ([(oracle._T_rule, i) for i in range(1, params.n)]
                  + [(oracle._xi_rule, j) for j in range(1, params.n + 1)])
    return keys, tuple(tuple(column(rule, g, key) for key in keys)
                       for rule, g in generators)


@pytest.mark.parametrize("n, r, u", RELATION_PARAMS)
def test_content_block_equals_reference(n, r, u):
    p = AlgebraParams(n, r, u)
    for content in itertools.combinations_with_replacement(range(1, r + 1), n):
        got, want = oracle._content_block(p, content), reference_content_block(p, content)
        # tuple for tuple, entry order and int or Fraction included
        assert got == want and repr(got) == repr(want)
        # equal columns and equal entries are one object each
        cols = [col for table in got[1] for col in table]
        entries = [e for col in cols for e in col]
        assert len(set(map(id, cols))) == len(set(cols))
        assert len(set(map(id, entries))) == len(set(entries))


def test_verify_relations_computes_the_right_steps_once(monkeypatch):
    calls, steps = [], oracle._right_steps

    def counted(n):
        calls.append(n)
        return steps(n)
    monkeypatch.setattr(oracle, "_right_steps", counted)
    verify_relations(AlgebraParams(3, 2))
    assert calls == [3]


def test_verify_relations_keeps_no_block(monkeypatch):
    # each call builds every color-content block once, and keeps none
    p = AlgebraParams(3, 2)
    built, block = [], oracle._content_block

    def counted(params, content):
        built.append(content)
        return block(params, content)
    monkeypatch.setattr(oracle, "_content_block", counted)
    verify_relations(p)
    verify_relations(p)
    assert built == 2 * [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]


def test_cross_check_builds_no_block(monkeypatch):
    # no regular representation: one closure per module, of e_id alone,
    # accepting exactly the module's dimension C(n, m) of echelon rows
    def no_block(params, content):
        raise AssertionError("an induced module built a color-content block")
    monkeypatch.setattr(oracle, "_content_block", no_block)
    closure, insert, build = oracle._closure, SparseEchelon.insert, build_induced_module
    counts, per_module = Counter(), []

    def counted_closure(ops, seeds):
        counts["closures"] += 1
        counts["seeds"] += len(seeds)
        return closure(ops, seeds)

    def counted_insert(self, vec):
        idx = insert(self, vec)
        counts["accepted"] += idx is not None
        return idx

    def counted_build(params, chars):
        counts.clear()
        module = build(params, chars)
        per_module.append((math.comb(params.n, len(chars[0].xi_colors)), module.dim,
                           counts["closures"], counts["seeds"], counts["accepted"]))
        return module
    monkeypatch.setattr(oracle, "_closure", counted_closure)
    monkeypatch.setattr(SparseEchelon, "insert", counted_insert)
    monkeypatch.setattr(oracle, "build_induced_module", counted_build)
    assert cross_check_induction(2, 4)["pass"]
    assert len(per_module) == 136
    assert all(comb == dim == accepted and closures == seeds == 1
               for comb, dim, closures, seeds, accepted in per_module)
    assert sum(dim for _, dim, *_ in per_module) == 584


def test_image_leaving_color_content_block_is_rejected(monkeypatch):
    good = oracle._T_rule

    def recolored(params, i, key):
        # a term of color word (1, ..., 1) whatever the input's colors
        return good(params, i, key) + [(((1,) * params.n, key[1]), 1)]
    monkeypatch.setattr(oracle, "_T_rule", recolored)
    with pytest.raises(OracleError, match="outside its color-content block"):
        verify_relations(AlgebraParams(2, 2))


def test_key_error_inside_a_rule_is_not_read_as_leaving_the_block(monkeypatch):
    def broken(params, i, key):
        raise KeyError("inside the rule")
    monkeypatch.setattr(oracle, "_T_rule", broken)
    with pytest.raises(KeyError, match="inside the rule"):
        verify_relations(AlgebraParams(2, 2))


def test_reader_raises_only_for_a_term_the_reading_lacks():
    p = AlgebraParams(2, 2)
    keys = [((1, 2), (1, 2)), ((2, 1), (1, 2))]
    with pytest.raises(OracleError, match="outside its color-content block"):
        oracle._read_module(p, keys, {})
    # a coset reading reads every other term as 0
    assert oracle._read_module(p, keys, defaultdict(tuple)).tables == (((), ()),) * 3


@pytest.mark.parametrize("check", [module_relations_ok, composition_factors])
@pytest.mark.parametrize("n, module_n, trim", [(3, 2, False), (2, 3, False), (2, 2, True)])
def test_module_of_the_wrong_size_is_rejected(check, n, module_n, trim):
    # a module of the other n, or (trim) one whose last table is one column short
    params = AlgebraParams(n, 2)
    tables = build_shape_module(AlgebraParams(module_n, 2), (module_n,)).tables
    module = ExplicitModule(tables[:-1] + (tables[-1][:-1],) if trim else tables)
    with pytest.raises(ValueError, match=rf"need {2 * params.n - 1} tables of one "
                       rf"length for n = {params.n}, got {len(module.tables)} tables"):
        check(params, module)


@pytest.mark.parametrize("n, r", [(3, 2), (4, 2)])
def test_module_relations_agree_with_dense_reference(n, r):
    p = AlgebraParams(n, r)
    for shape in compositions(n):
        mod = build_shape_module(p, shape)
        mats = dense(mod)
        broken = from_dense([mat_scale(2, mats[0])] + mats[1:])
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

    def counted(table, v, out=None, scale=1):
        calls.append(table)
        return act(table, v, out, scale)

    monkeypatch.setattr(oracle, "_act", counted)
    counts = []
    for mod in (small, big):
        calls.clear()
        assert module_relations_ok(p, mod)
        counts.append(len(calls))
    assert (small.dim, big.dim) == (1, 8)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("u", [(1, 2, 3), (Fraction(-1, 2), 3, 0), (2, -7),
                               (Fraction(1, 3), -1, 1, 0, Fraction(-7, 2))])
def test_lagrange_projectors_interpolate(u):
    # the product form evaluated at each parameter, on scalars
    for k in range(1, len(u) + 1):
        for l, ul in enumerate(u, start=1):
            value = oracle._lagrange_apply(u, k, lambda v: ul * v,
                                           lambda a, b: a - b, lambda s, v: s * v, 1)
            assert value == (1 if l == k else 0)


@pytest.mark.parametrize("u", [(1, 2, 3), (Fraction(-1, 2), 3, 0), (2, -7)])
def test_lagrange_coeffs_interpolate(u):
    for k in range(1, len(u) + 1):
        nums, denom = reference_lagrange_coeffs(u, k)
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


@pytest.mark.parametrize("r, max_grade", [(2, 4), (3, 3)])
def test_induced_modules_equal_dense_reference(r, max_grade):
    for p, chars in criterion_11_characters(r, max_grade):
        assert exact_entries(reference_ideal_quotient_module(p, chars)) == \
            exact_entries(reference_ideal_quotient_module(
                p, chars, quotient=reference_quotient_module))


@pytest.mark.parametrize("r, max_grade", [(2, 4), (3, 3)])
def test_induced_modules_equal_reference_ops_build(r, max_grade):
    for p, chars in criterion_11_characters(r, max_grade):
        assert exact_entries(reference_ideal_quotient_module(p, chars)) == \
            exact_entries(reference_induced_module(p, chars))


@pytest.mark.parametrize("r, max_grade", [(2, 4), (3, 3), (2, 5)])
def test_induced_modules_equal_the_coset_reference(r, max_grade):
    for p, chars in criterion_11_characters(r, max_grade):
        assert_same_tables(build_induced_module(p, chars),
                           reference_coset_induced_module(p, chars))


def test_induced_module_is_two_closures_of_n_factorial_rows(monkeypatch):
    # the ideal-quotient reference: the Hecke ideal H and the closure of
    # B[a, id] modulo H, |H| + dim = n! accepted rows in all, and no
    # closure of the whole left ideal
    closure, insert = oracle._closure, SparseEchelon.insert
    counts, per_module = Counter(), []

    def counted_closure(ops, seeds):
        counts["closures"] += 1
        return closure(ops, seeds)

    def counted_insert(self, vec):
        idx = insert(self, vec)
        counts["accepted"] += idx is not None
        return idx
    monkeypatch.setattr(oracle, "_closure", counted_closure)
    monkeypatch.setattr(SparseEchelon, "insert", counted_insert)
    for p, chars in criterion_11_characters(2, 4):
        counts.clear()
        module = reference_ideal_quotient_module(p, chars)
        per_module.append((p.n, module.dim, counts["closures"], counts["accepted"]))
    assert len(per_module) == 136
    assert all(closures == 2 and accepted == math.factorial(n)
               for n, _, closures, accepted in per_module)
    assert sum(accepted for *_, accepted in per_module) == 2744
    assert sum(dim for _, dim, *_ in per_module) == 584


def isomorphism(m1, m2):
    """The map ``phi`` with ``phi(x e_id) = x e'_id`` for every word ``x``
    in the generators, as ``phi(e_k)`` per basis vector ``k`` of ``m1``;
    None unless it is well defined and invertible.  The closure of
    ``e_id + e'_id`` in ``m1 + m2`` (keys ``(0, k)`` and ``(1, k)``) under
    both tables at once is the graph of ``phi``: it is well defined when
    no row of the graph is zero on ``m1``, and onto ``m1`` when the graph
    has a row per basis vector of ``m1``."""
    def op(t1, t2):
        def act(v):
            out = {}
            for (side, k), x in v.items():
                accumulate(out, (((side, row), x * a)
                                 for row, a in (t1 if side == 0 else t2)[k]))
            return out
        return act
    graph = oracle._closure([op(*pair) for pair in zip(m1.tables, m2.tables)],
                            [{(0, 0): 1, (1, 0): 1}])
    pivots = sorted(graph.pivot_of)
    if pivots != [(0, k) for k in range(m1.dim)] or len(graph) != m2.dim:
        return None
    # the rows are reduced, so the row of pivot (0, k) is e_k + phi(e_k)
    phi = {pivot[1]: {k: x for (side, k), x in row.items() if side == 1}
           for pivot, row in zip(graph.pivot_of, graph.rows)}
    image = SparseEchelon()
    if any(image.insert(v) is None for v in phi.values()):
        return None
    return phi


def assert_isomorphic(m1, m2):
    phi = isomorphism(m1, m2)
    assert phi is not None
    for t1, t2 in zip(m1.tables, m2.tables):
        for k in range(m1.dim):
            # phi(G e_k) = G phi(e_k) for every generator G
            assert accumulate({}, ((j, x * a) for row, x in t1[k]
                                   for j, a in phi[row].items())) == \
                oracle._act(t2, phi[k])


def multi_factor_characters():
    """Characters of three factors and of one, with every size at most 4
    in all, two colors, and simple characters on each factor."""
    simples = {m: [simple_character(rib) for rib in enumerate_cycloribbons(m, 2)]
               for m in range(1, 5)}
    for sizes in [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2), (4,), (3,), (2,), (1,)]:
        p = AlgebraParams(sum(sizes), 2)
        for chars in itertools.product(*(simples[m] for m in sizes)):
            yield p, list(chars)


def isomorphism_cases():
    yield from criterion_11_characters(2, 4)
    yield from criterion_11_characters(3, 3)
    yield from criterion_11_characters(1, 5)
    yield from multi_factor_characters()


def test_build_is_isomorphic_to_the_ideal_quotient():
    count = 0
    for p, chars in isomorphism_cases():
        assert_isomorphic(build_induced_module(p, chars),
                          reference_ideal_quotient_module(p, chars))
        count += 1
    assert count == 136 + 81 + 49 + 8 + 3 * 24 + 54 + 18 + 6 + 2


def test_isomorphism_check_rejects_other_modules():
    # the two orders of two one-box factors: equal dimension and
    # composition factors, but T_1 e_id is e_s - e_id in one, e_s in the other
    p = AlgebraParams(2, 2)
    ab = build_induced_module(p, [Character((1,), ()), Character((2,), ())])
    ba = build_induced_module(p, [Character((2,), ()), Character((1,), ())])
    assert composition_factors(p, ab) == composition_factors(p, ba)
    assert isomorphism(ab, ba) is None
    assert isomorphism(ab, ab) == {0: {0: 1}, 1: {1: 1}}


def test_induced_module_not_generated_by_its_seed_is_rejected(monkeypatch):
    # T_i acting by 0 leaves e_id = 1 (x) 1 alone in its cyclic submodule
    monkeypatch.setattr(oracle, "_T_rule", lambda params, i, key: [])
    with pytest.raises(OracleError, match=r"^1 \(x\) 1 generates a submodule of "
                       r"dimension 1, not the whole module of dimension 2$"):
        build_induced_module(AlgebraParams(2, 1),
                             [Character((1,), ()), Character((1,), ())])


def test_induced_module_of_wrong_dimension_is_rejected(monkeypatch):
    # without the longest representative the basis is one vector short
    words = oracle._coset_words
    monkeypatch.setattr(oracle, "_coset_words", lambda sizes: words(sizes)[:-1])
    with pytest.raises(OracleError,
                       match="^induced module has dimension 5, expected 6$"):
        build_induced_module(AlgebraParams(4, 2), [Character((1, 2), (-1,)),
                                                   Character((2, 1), (0,))])


def test_seed_off_its_character_is_rejected(monkeypatch):
    # xi_2 acts on B[c, id] by u[c_2] + 1, so on e_id by 3, not u[a_2] = 2
    good = oracle._xi_rule

    def shifted(params, j, key):
        out = good(params, j, key)
        return out + [(key, 1)] if j == 2 and key[1] == (1, 2) else out
    monkeypatch.setattr(oracle, "_xi_rule", shifted)
    with pytest.raises(OracleError, match=r"^xi_2 acts on 1 \(x\) 1 by \{0: 3\}, not 2$"):
        build_induced_module(AlgebraParams(2, 2),
                             [Character((1,), ()), Character((2,), ())])


def test_induced_module_violating_the_relations_is_rejected(monkeypatch):
    # 2 T_i spans what T_i spans, but breaks T_i^2 = -T_i
    good = oracle._T_rule

    def doubled(params, i, key):
        return [(image, 2 * coeff) for image, coeff in good(params, i, key)]
    monkeypatch.setattr(oracle, "_T_rule", doubled)
    with pytest.raises(OracleError,
                       match="^induced module violates the defining relations$"):
        build_induced_module(AlgebraParams(2, 2),
                             [Character((1,), ()), Character((2,), ())])


def test_inducing_from_no_character_is_rejected():
    # invalid input, not a failed oracle check: t = 5 is no value of T_1,
    # and T_1 acts by -1 where c_1 < c_2 (the ideal-quotient build finds
    # that the ideal of the constraints is everything)
    for p, chars, factor in [
            (AlgebraParams(2, 1), [Character((1, 1), (5,))],
             r"^factor 0 Character\(xi_colors=\(1, 1\), t_values=\(5,\)\) "),
            (AlgebraParams(2, 2), [Character((1, 2), (0,))],
             r"^factor 0 Character\(xi_colors=\(1, 2\), t_values=\(0,\)\) "),
            (AlgebraParams(2, 2), [Character((1, 1), (5,))],
             r"^factor 0 Character\(xi_colors=\(1, 1\), t_values=\(5,\)\) "),
            (AlgebraParams(3, 2), [Character((1,), ()), Character((2, 1), (-1,))],
             r"^factor 1 Character\(xi_colors=\(2, 1\), t_values=\(-1,\)\) ")]:
        with pytest.raises(ValueError, match=factor + "is not a one-dimensional character$"):
            build_induced_module(p, chars)
        assert reference_ideal_quotient_module(p, chars).dim == 0


def test_induced_module_of_too_small_rank_is_rejected(monkeypatch):
    # the rank check of the ideal-quotient reference: T_i acting by 0
    # leaves B[a, id] alone in its left ideal
    monkeypatch.setattr(oracle, "_T_rule", lambda params, i, key: [])
    with pytest.raises(OracleError,
                       match=r"^left ideal of B\[a, id\] has rank 1, expected 2$"):
        reference_ideal_quotient_module(AlgebraParams(2, 1),
                                        [Character((1,), ()), Character((1,), ())])


@pytest.mark.parametrize("chars", [
    [Character((), ()), Character((1, 2), (-1,))],
    [Character((1, 2), (-1,)), Character((), ())],
    [Character((1,), ()), Character((), ()), Character((2,), ())]])
def test_empty_factor_changes_nothing(chars):
    p = AlgebraParams(2, 2)
    mod = build_induced_module(p, chars)
    nonempty = [ch for ch in chars if ch.xi_colors]
    assert exact_entries(mod) == exact_entries(build_induced_module(p, nonempty))
    assert_isomorphic(mod, reference_ideal_quotient_module(p, chars))


@pytest.mark.parametrize("chars, factor", [
    ([Character((1, 2), ())], r"^factor 0 Character\(xi_colors=\(1, 2\), "
                              r"t_values=\(\)\) needs 1 t-values$"),
    ([Character((1,), ()), Character((2,), (0,))], r"^factor 1 .* needs 0 t-values$"),
    ([Character((), (0,)), Character((1, 2), ())], r"^factor 0 .* needs 0 t-values$")])
def test_t_values_of_the_wrong_length_are_rejected(chars, factor):
    with pytest.raises(ValueError, match=factor):
        build_induced_module(AlgebraParams(2, 2), chars)


@pytest.mark.parametrize("chars, factor", [
    # a color 0 would be read as u_0 = u[-1] = u_2
    ([Character((0, 2), (-1,))], r"^factor 0 Character\(xi_colors=\(0, 2\), "
                                 r"t_values=\(-1,\)\) has a color outside 1\.\.2$"),
    ([Character((3, 1), (0,))], r"^factor 0 .* has a color outside 1\.\.2$"),
    ([Character((1,), ()), Character((3,), ())], r"^factor 1 .* outside 1\.\.2$")])
def test_colors_outside_the_parameters_are_rejected(chars, factor):
    with pytest.raises(ValueError, match=factor):
        build_induced_module(AlgebraParams(2, 2), chars)


@pytest.mark.parametrize("check", [build_shape_module, check_socle, check_submodule_order])
@pytest.mark.parametrize("shape", [(3, -1), (2, 0), (0, 2)])
def test_shapes_that_are_not_compositions_are_rejected(check, shape):
    with pytest.raises(ValueError, match=r"is not a composition of 2$"):
        check(AlgebraParams(2, 2), shape)


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


def test_factor_missing_from_the_census_is_rejected(monkeypatch):
    # the traces find a factor of weight (2, 1); a census without it would
    # falsify the classification, which the guard reports
    p = AlgebraParams(2, 2)
    mod = build_induced_module(p, [Character((1,), ()), Character((2,), ())])
    missing = Character((2, 1), (0,))
    census = enumerate_one_dim_characters(p)
    assert missing in composition_factors(p, mod) and missing in census
    monkeypatch.setattr(oracle, "enumerate_one_dim_characters",
                        lambda params: tuple(ch for ch in census if ch != missing))
    with pytest.raises(OracleError, match=r"^factor Character\(xi_colors=\(2, 1\), "
                       r"t_values=\(0,\)\) is not a one-dimensional character; "
                       r"this would falsify the classification of the simples$"):
        composition_factors(p, mod)


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


def test_broken_T_rule_reaches_the_shape_modules(monkeypatch):
    # the shape modules take their columns from the displayed rules, so
    # a defect there must make the module fail its certificate
    good = oracle._T_rule

    def doubled(params, i, key):
        return [(image, 2 * coeff) for image, coeff in good(params, i, key)]
    monkeypatch.setattr(oracle, "_T_rule", doubled)
    for shape, message in [
            # T_1 acts on 1 (x) 1 by twice its value -1 ...
            ((1, 1), r"^T_1 acts on 1 \(x\) 1 by \{0: -2, 2: -2, 1: -2, 3: -2\}, not -1$"),
            # ... and by twice 0 on a shape with no descent, but T_1^2 = -T_1 fails
            ((2,), "^induced module violates the defining relations$")]:
        with pytest.raises(OracleError, match=message):
            build_shape_module(AlgebraParams(2, 2), shape)


def test_shape_module_seed_off_its_character_is_rejected(monkeypatch):
    # without the term L_{c.s_i} T_i T_w, only the color corrections are
    # left, and they cancel on 1 (x) 1 = sum_c e_c: T_1 acts on it by 0
    good = oracle._T_rule
    monkeypatch.setattr(oracle, "_T_rule", lambda params, i, key: good(params, i, key)[1:])
    with pytest.raises(OracleError, match=r"^T_1 acts on 1 \(x\) 1 by \{\}, not -1$"):
        build_shape_module(AlgebraParams(2, 2), (1, 1))


def test_shape_module_not_generated_by_its_seed_is_rejected(monkeypatch):
    # the xi_j tell the e_c apart; acting by u_1 on every e_c, they do not,
    # and 1 (x) 1, fixed by T_1 = 0, spans a submodule alone
    monkeypatch.setattr(oracle, "_xi_rule", lambda params, j, key: [(key, params.u[0])])
    with pytest.raises(OracleError, match=r"^1 \(x\) 1 generates a submodule of "
                       r"dimension 1, not the whole module of dimension 4$"):
        build_shape_module(AlgebraParams(2, 2), (2,))


@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 5) for r in (1, 2)]
                         + [(n, 3) for n in range(1, 4)])
def test_shape_modules_equal_the_coset_reference(n, r):
    p = AlgebraParams(n, r)
    for shape in compositions(n):
        assert_same_tables(build_shape_module(p, shape),
                           reference_coset_shape_module(p, shape))


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


@pytest.mark.parametrize("r, max_grade, bad", [
    (0, 1, "r = 0"), (0, 0, "r = 0"), (-3, 1, "r = -3"), (0, 2, "r = 0"),
    (2, -1, "max_grade = -1")])
def test_cross_check_rejects_invalid_arguments(r, max_grade, bad):
    """No vacuous pass with 0 cases: an r below 1 or a negative grade is an
    error that names the value, also where the loop would run no case."""
    with pytest.raises(ValueError, match=bad):
        cross_check_induction(r, max_grade)


def negated_convention(r):
    """``induce_simples`` under the convention that inverts the colors in
    the cyclic group on {1, ..., r} (c -> 1 if c = 1, else r + 2 - c):
    the plain product of the color-negated labels."""
    def negate(rib):
        return ribbons.ColoredRibbon(rib.shape, tuple(
            1 if c == 1 else r + 2 - c for c in rib.colors))

    def induce(a, b):
        return Counter(dict(hopf._f_label_product(negate(a), negate(b))))
    return induce


def test_cross_check_negation_fails_with_three_colors(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "induce_simples", negated_convention(3))
        report = cross_check_induction(3, 2)
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
    t1, xi1, xi2 = dense(mod)
    broken = from_dense([mat_scale(2, t1), xi1, xi2])
    with pytest.raises(OracleError, match="not idempotent"):
        composition_factors(p, broken)


@pytest.mark.parametrize("column, message", [
    (((0, 1), (1, 1)), "not diagonal"),    # xi_1 of e_0 has an entry at e_1
    (((1, 1),), "not diagonal"),
    (((0, 5),), "not a parameter"),
    ((), "not a parameter"),               # acts by 0, and 0 is no parameter
])
def test_xi_column_off_the_parameters_is_rejected(column, message):
    p = AlgebraParams(2, 2)
    tables = build_shape_module(p, (1, 1)).tables
    xi1 = (column,) + tables[1][1:]
    with pytest.raises(OracleError, match=message):
        composition_factors(p, ExplicitModule((tables[0], xi1) + tables[2:]))


def test_pi_leaving_its_weight_space_is_rejected():
    # T_1 e_0 = -e_0 on the weight (1, 1); adding e_1, of weight (1, 2),
    # makes pi_1 e_0 = e_1 leave the weight space
    p = AlgebraParams(2, 2)
    t1, *xis = build_shape_module(p, (1, 1)).tables
    assert t1[0] == ((0, -1),)
    t1 = (((0, -1), (1, 1)),) + t1[1:]
    with pytest.raises(OracleError, match="outside itself"):
        composition_factors(p, ExplicitModule((t1, *xis)))


@pytest.mark.parametrize("r, max_grade", [(2, 4), (3, 3)])
def test_factors_equal_dense_traces_on_induced_modules(r, max_grade):
    for p, mod in criterion_11_modules(r, max_grade):
        assert composition_factors(p, mod) == reference_composition_factors(p, mod)


@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 4) for r in (1, 2)]
                         + [(4, 2), (3, 3)])
def test_shape_modules_and_socles_equal_dense_reference(n, r):
    p = AlgebraParams(n, r)
    for shape in compositions(n):
        mod = build_shape_module(p, shape)
        assert exact_entries(mod) == exact_entries(reference_shape_module(p, shape))
        assert composition_factors(p, mod) == reference_composition_factors(p, mod)
        assert check_socle(p, shape) == reference_check_socle(p, shape)


def test_integral_parameters_stay_ints():
    """An int parameter is kept as it is; any other value is read as a
    Fraction and becomes an int when it is integral."""
    u = AlgebraParams(3, 3, (2, Fraction(14, 2), "-3")).u
    assert u == (2, 7, -3) and all(type(x) is int for x in u)
    assert all(type(x) is int for x in AlgebraParams(2, 2).u)
    assert type(AlgebraParams(2, 2, ("1/2", 3)).u[0]) is Fraction
    for given, want in [
            ((1, -2, 0), [(1, int), (-2, int), (0, int)]),
            ((True, False, 7), [(1, int), (0, int), (7, int)]),
            ((Fraction(6, 3), Fraction(-1, 1), Fraction(0)),
             [(2, int), (-1, int), (0, int)]),
            ((Fraction(1, 3), Fraction(-5, 2), 4),
             [(Fraction(1, 3), Fraction), (Fraction(-5, 2), Fraction), (4, int)]),
            ((2.0, 0.5, -0.25),
             [(2, int), (Fraction(1, 2), Fraction), (Fraction(-1, 4), Fraction)]),
            (("3", "1/2", "-4/2"),
             [(3, int), (Fraction(1, 2), Fraction), (-2, int)])]:
        u = AlgebraParams(2, 3, given).u
        assert [(x, type(x)) for x in u] == want, given
