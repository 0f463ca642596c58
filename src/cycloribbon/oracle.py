"""Ground-truth construction of the colored 0-Hecke algebras.

The algebra on ``n`` strands with ``r`` colors is presented by Hecke
generators ``T_1..T_{n-1}`` and commuting color generators
``xi_1..xi_n`` whose joint spectrum is a fixed list of distinct rational
parameters ``u_1..u_r``.  Writing ``L_c`` for the product of Lagrange
interpolation projectors picking eigenvalue ``u_{c_j}`` for ``xi_j``,
the elements ``B[c, w] = L_c T_w`` (``c`` a color word, ``w`` a
permutation) form a basis, and left multiplication by the generators
acts by

* ``xi_j . B[c, w]  =  u[c_j] B[c, w]``
* ``T_i . B[c, w]   =  L_{c.s_i} (T_i T_w)`` plus a correction term:
  ``-B[c, w]`` when ``c_i < c_{i+1}``, nothing when equal, and
  ``+B[c.s_i, w]`` when ``c_i > c_{i+1}``,

with ``T_i T_w`` simplified by the usual 0-Hecke rule (``T_i`` squares
to ``-T_i``).  Everything in this module is derived from these two
displayed rules plus exact rational linear algebra; no combinatorial
shortcut from the rest of the package is assumed, which is what makes
it an oracle for them.

Both rules keep the multiset of colors, so the regular representation
splits into color-content blocks.  Each rule is written once, for one
basis element, and builds the tables of sparse generator columns of a
block, and those of the shape modules, which are induced from the
colorless Hecke subalgebra.  The relations are checked by one evaluator
on such tables, or on the columns of a module.  The relation suite is
compiled once per parameter set into polynomials with integer
coefficients in words of generators; the evaluator applies each
distinct word once to the identity operator, stored as a single dict
keyed by ``column * dim + row``, and sums each relation's terms.

Induced modules are built as quotients of the left regular
representation by the left ideal generated by ``g - chi(g)`` over the
generators ``g`` of the inducing subalgebra.  For a parabolic character
the color constraints are applied first: they cut the regular
representation down to the right ideal generated by the single basis
element ``B[a, id]`` (``a`` the concatenated color word), inside which
the Hecke constraints are a small closure/quotient computation, acting
by the tables of the block, cached per parameter set and color content.

Composition factors are read off from traces, with no quotient module:
on the weight space of a color word ``c`` the colors fix ``t_i`` except
where ``c_i = c_{i+1}``, and there Norton's 0-Hecke idempotents
``pi_i = 1 + T_i`` commute with ``L_c`` and count the rest.  Echelon
rows of a xi-stable span have one weight each, so the modules have
weight bases, on which each trace is a diagonal sum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .linalg import SparseEchelon, reduce_mod_rref
from .lincomb import FormalSum, accumulate
from .reptheory import Character, induce_simples, simple_character
from .ribbons import (
    ColoredRibbon,
    descent_set,
    enumerate_cycloribbons,
    fillings_below,
    inverse_perm,
    is_cycloribbon,
)


class OracleError(Exception):
    """A structural expectation of the oracle failed; the message carries
    the diagnostic that would falsify the corresponding statement."""


@dataclass(frozen=True)
class AlgebraParams:
    """Size, number of colors, and the distinct spectral parameters."""

    n: int
    r: int
    u: tuple = ()

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        # integral parameters stay ints: exact, and much cheaper than Fraction
        u = tuple(int(x) if x.denominator == 1 else x
                  for x in map(Fraction, self.u or range(1, self.r + 1)))
        if len(u) != self.r or len(set(u)) != self.r:
            raise ValueError(f"need {self.r} pairwise distinct parameters, got {u}")
        object.__setattr__(self, "u", u)

    @property
    def dimension(self):
        return self.r ** self.n * math.factorial(self.n)


class AlgebraElement(FormalSum):
    """Sparse rational combination of the ``B[c, w]`` basis."""

    __slots__ = ()

    def __init__(self, terms=()):
        super().__init__(None, terms)

    @classmethod
    def basis(cls, colors, perm):
        return cls({(tuple(colors), tuple(perm)): 1})

    def __repr__(self):
        bits = " + ".join(f"{c}*B{k}" for k, c in self.sorted_terms())
        return f"AlgebraElement({bits or 0})"


def _T_rule(params: AlgebraParams, i: int, key) -> list:
    """The displayed action of ``T_i`` on one basis element ``B[c, w]``,
    as ``((c', w'), coeff)`` terms; a key may occur twice."""
    c, w = key
    cs = c[:i - 1] + (c[i], c[i - 1]) + c[i + 1:]
    # commuting T_i through L_c leaves L_{c.s_i} T_i ...
    winv = inverse_perm(w)
    if winv[i - 1] < winv[i]:          # length goes up
        terms = [((cs, _swap_values(w, i)), 1)]
    else:                              # T_i^2 = -T_i
        terms = [((cs, w), -1)]
    # ... plus the color correction term
    if c[i - 1] < c[i]:
        terms.append((key, -1))
    elif c[i - 1] > c[i]:
        terms.append(((cs, w), 1))
    return terms


def _xi_rule(params: AlgebraParams, j: int, key) -> list:
    """The displayed action of ``xi_j`` on ``B[c, w]``: ``u[c_j]`` times it."""
    return [(key, params.u[key[0][j - 1] - 1])]


def _swap_values(word, i):
    """Left multiplication by the i-th adjacent transposition."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in word)


def _left_mult(rule, params, k, x: AlgebraElement) -> AlgebraElement:
    return AlgebraElement((image, coeff * a) for key, coeff in x.terms.items()
                          for image, a in rule(params, k, key))


def left_mult_xi(params: AlgebraParams, j: int, x: AlgebraElement) -> AlgebraElement:
    """Color generators act diagonally through their Lagrange spectrum."""
    if not 1 <= j <= params.n:
        raise ValueError(f"xi index {j} outside 1..{params.n}")
    return _left_mult(_xi_rule, params, j, x)


def left_mult_T(params: AlgebraParams, i: int, x: AlgebraElement) -> AlgebraElement:
    if not 1 <= i <= params.n - 1:
        raise ValueError(f"T index {i} outside 1..{params.n - 1}")
    return _left_mult(_T_rule, params, i, x)


@lru_cache(maxsize=64)
def lagrange_coeffs(u: tuple, k: int) -> tuple:
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


def _lagrange_apply(u, k, xi, add, scale, v):
    """``l_k(xi) v`` by Horner's rule on the integer numerators, divided
    once by the common denominator at the end."""
    nums, denom = lagrange_coeffs(u, k)
    acc = scale(nums[-1], v)
    for a in reversed(nums[:-1]):
        acc = add(xi(acc), scale(a, v))
    return acc if denom == 1 else scale(Fraction(1, denom), acc)


# ---------------------------------------------------------------------------
# the defining relations, evaluated on sparse tables of generator columns

def _relation_suite(params: AlgebraParams, T, XI, add, sub, scale):
    """All defining relations at q = 0 as residual maps ``v -> LHS - RHS``
    applied to an abstract vector; the caller supplies the generator
    actions and the vector arithmetic."""
    n, u = params.n, params.u

    def lagrange_apply(k, j, v):
        return _lagrange_apply(u, k, lambda w: XI(j, w), add, scale, v)

    checks = []
    for i in range(1, n):
        checks.append(("quadratic", f"i={i}",
                       lambda v, i=i: add(T(i, T(i, v)), T(i, v))))
    for i in range(1, n - 1):
        checks.append(("braid", f"i={i}",
                       lambda v, i=i: sub(T(i, T(i + 1, T(i, v))),
                                          T(i + 1, T(i, T(i + 1, v))))))
    for i in range(1, n):
        for j in range(i + 2, n):
            checks.append(("commute-T-T", f"i={i},j={j}",
                           lambda v, i=i, j=j: sub(T(i, T(j, v)), T(j, T(i, v)))))
    for j in range(1, n + 1):
        def charpoly(v, j=j):
            acc = v
            for ul in u:
                acc = sub(XI(j, acc), scale(ul, acc))
            return acc
        checks.append(("color-char-poly", f"j={j}", charpoly))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            checks.append(("commute-xi-xi", f"i={i},j={j}",
                           lambda v, i=i, j=j: sub(XI(i, XI(j, v)),
                                                   XI(j, XI(i, v)))))
    for i in range(1, n):
        def cross(v, i=i):
            res = sub(T(i, XI(i, v)), XI(i + 1, T(i, v)))
            for c1 in range(1, params.r + 1):
                for c2 in range(c1 + 1, params.r + 1):
                    term = lagrange_apply(c1, i, lagrange_apply(c2, i + 1, v))
                    res = sub(res, scale(u[c2 - 1] - u[c1 - 1], term))
            return res
        checks.append(("cross-commutation", f"i={i}", cross))
    for i in range(1, n):
        checks.append(("sum-commutation", f"i={i}",
                       lambda v, i=i: sub(
                           T(i, add(XI(i, v), XI(i + 1, v))),
                           add(XI(i, T(i, v)), XI(i + 1, T(i, v))))))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            checks.append(("commute-T-xi", f"i={i},j={j}",
                           lambda v, i=i, j=j: sub(T(i, XI(j, v)),
                                                   XI(j, T(i, v)))))
    return checks


def _act(table, v: dict) -> dict:
    """Apply the generator whose sparse columns are ``table`` to ``v``, an
    operator stored as one dict keyed by ``column * dim + row`` (a plain
    vector is the operator of column 0)."""
    dim = len(table)
    return accumulate({}, ((key - row + k, c * a) for key, c in v.items()
                           for row in (key % dim,) for k, a in table[row]))


@lru_cache(maxsize=32)
def _relation_plan(params: AlgebraParams) -> tuple:
    """The relation suite compiled into polynomials in generator words,
    with their schedule: one ``(position in the suite, check, instance,
    steps)`` per relation.  A word is the tuple of table indices of its
    generators (``T_1..T_{n-1}``, then ``xi_1..xi_n``), the leftmost
    applied last.  A step ``(word, coeff, build, drop)`` builds the listed
    words, each on its suffix, adds ``coeff`` times the word, then drops
    the words that no later step uses or extends.  Each polynomial is
    multiplied by the lcm of its denominators, so the coefficients are
    ints; a nonzero multiple of a residual has the same nonzero entries.
    Relations run in order of the least and greatest index of their
    generators (``T_i`` and ``xi_i`` count as ``i``), so that few words
    are kept from one to the next."""
    n = params.n
    checks = _relation_suite(
        params,
        T=lambda i, v: {(i - 1,) + w: c for w, c in v.items()},
        XI=lambda j, v: {(n + j - 2,) + w: c for w, c in v.items()},
        add=lambda a, b: accumulate(dict(a), b.items()),
        sub=lambda a, b: accumulate(dict(a), b.items(), -1),
        scale=lambda s, a: accumulate({}, a.items(), s))
    polys = []
    for pos, (name, instance, residual) in enumerate(checks):
        poly = residual({(): 1})
        lcm = math.lcm(*(c.denominator for c in poly.values()))
        span = sorted({g - (n - 1) if g >= n - 1 else g for w in poly for g in w})
        polys.append((span[:1] + span[-1:], pos, name, instance,
                      [(w, int(c * lcm)) for w, c in poly.items()]))
    plan, built, last_use = [], {()}, {}
    for _, pos, name, instance, terms in sorted(polys):
        steps = []
        for w, c in terms:
            suffixes = [w[k:] for k in range(len(w) - 1, -1, -1)]
            drop = []
            steps.append((w, c, [s for s in suffixes if s not in built], drop))
            built.update(suffixes)
            last_use.update(dict.fromkeys(suffixes, drop))
        plan.append((pos, name, instance, steps))
    for w, drop in last_use.items():
        drop.append(w)
    # the cache hands the plan to every caller, so it is made immutable
    return tuple((pos, name, instance, tuple((w, c, tuple(b), tuple(d))
                                             for w, c, b, d in steps))
                 for pos, name, instance, steps in plan)


def _table_residuals(params, tables) -> list:
    """``(check, instance, residual)`` for every defining relation, in
    suite order, on a representation whose generators ``T_1..T_{n-1},
    xi_1..xi_n`` act by the given tables of sparse columns.  Each word of
    the compiled plan is applied once to the identity operator, by one
    ``_act`` on its suffix, and dropped after its last use; a residual is
    the sum of its terms' operators.  It is keyed by ``column * dim +
    row``, is a nonzero integer multiple of the relation's own residual,
    and is empty (test ``not``; key 0 is falsy) exactly when the relation
    holds."""
    dim = len(tables[-1])
    ops = {(): {k * dim + k: 1 for k in range(dim)}}
    plan = _relation_plan(params)
    out = [None] * len(plan)
    for pos, name, instance, steps in plan:
        residual = {}
        for word, coeff, build, drop in steps:
            for w in build:
                ops[w] = _act(tables[w[0]], ops[w[1:]])
            accumulate(residual, ops[word].items(), coeff)
            for w in drop:
                del ops[w]
        # an emptied dict keeps its size, so keep a fresh one instead
        out[pos] = name, instance, residual or {}
    return out


def _generators(params: AlgebraParams) -> list:
    """``(rule, index)`` for ``T_1..T_{n-1}``, then ``xi_1..xi_n``: the
    order of the generator tables everywhere in this module."""
    return ([(_T_rule, i) for i in range(1, params.n)]
            + [(_xi_rule, j) for j in range(1, params.n + 1)])


def _content_block(params: AlgebraParams, content: tuple) -> tuple:
    """The basis keys ``(c, w)`` with ``c`` a rearrangement of the sorted
    ``content``, in basis order, and the sparse columns of ``T_1..T_{n-1},
    xi_1..xi_n`` on them, indexed by position in the keys.  An image
    leaving the block raises :class:`OracleError`.  Equal entries and
    columns are stored once: the tables dominate the relation check's memory."""
    keys = tuple((c, w) for c in sorted(set(itertools.permutations(content)))
                 for w in itertools.permutations(range(1, params.n + 1)))
    index = {key: k for k, key in enumerate(keys)}
    share = {}

    def column(rule, g, key):
        image = accumulate({}, rule(params, g, key))
        if not image.keys() <= index.keys():
            raise OracleError(f"B{key} is mapped outside its color-content block")
        col = tuple(share.setdefault(e, e) for e in
                    ((index[k], c) for k, c in image.items()))
        return share.setdefault(col, col)

    # immutable, since the cache hands the same block to every caller
    return keys, tuple(tuple(column(rule, g, key) for key in keys)
                       for rule, g in _generators(params))


# the induced modules of one cross-check share few color contents
_cached_block = lru_cache(maxsize=64)(_content_block)


def verify_relations(params: AlgebraParams) -> list:
    """Check every defining relation on every basis element of the left
    regular representation.  Returns one report dict per relation
    instance, with a counterexample on failure: the least basis element
    with a nonzero residual, and its number of terms.

    The generator columns are built once per color-content block, and not
    cached (each block is used once); an image leaving its block raises
    :class:`OracleError`."""
    found = {}   # (check, instance) -> least failing (key, residual terms)
    for content in itertools.combinations_with_replacement(
            range(1, params.r + 1), params.n):
        keys, tables = _content_block(params, content)
        dim = len(keys)
        for name, instance, residual in _table_residuals(params, tables):
            bad = None
            if residual:
                k = min(residual) // dim
                bad = keys[k], sum(key // dim == k for key in residual)
            old = found.get((name, instance))
            found[name, instance] = min(filter(None, (old, bad)), default=None)
    return [{"check": name, "instance": instance, "pass": bad is None,
             "counterexample": None if bad is None else {
                 "basis_element": {"colors": list(bad[0][0]),
                                   "perm": list(bad[0][1])},
                 "residual_terms": bad[1]}}
            for (name, instance), bad in found.items()]


@dataclass(frozen=True)
class ExplicitModule:
    """Concrete module: the sparse columns of ``T_1..T_{n-1}``, then
    ``xi_1..xi_n``, one tuple of ``(row, entry)`` pairs per basis vector."""

    tables: tuple

    @property
    def dim(self):
        return len(self.tables[-1])


def module_relations_ok(params: AlgebraParams, module: ExplicitModule) -> bool:
    return all(not residual
               for _, _, residual in _table_residuals(params, module.tables))


@lru_cache(maxsize=32)
def enumerate_one_dim_characters(params: AlgebraParams) -> tuple:
    """Brute force: all assignments of 0/-1 to the Hecke generators and a
    parameter to each color generator that satisfy every relation.  The
    candidates are checked in one pass, as the columns of their direct
    sum: a candidate fails when a residual has an entry in its column."""
    chars = [Character(colors, tvals)
             for colors in itertools.product(range(1, params.r + 1), repeat=params.n)
             for tvals in itertools.product((0, -1), repeat=params.n - 1)]
    values = [ch.t_values + tuple(params.u[c - 1] for c in ch.xi_colors)
              for ch in chars]
    tables = [[((k, v[g]),) if v[g] else () for k, v in enumerate(values)]
              for g in range(2 * params.n - 1)]
    failed = {key // len(chars)
              for _, _, residual in _table_residuals(params, tables)
              for key in residual}
    return tuple(sorted(ch for k, ch in enumerate(chars) if k not in failed))


# ---------------------------------------------------------------------------
# induced modules by ideal-quotient linear algebra

def _closure(ops, seeds) -> SparseEchelon:
    """Echelon basis of the smallest span that contains the seed vectors
    and is closed under every op (a map of dict vectors)."""
    ech = SparseEchelon()
    queue = [idx for idx in map(ech.insert, seeds) if idx is not None]
    for idx in queue:
        # inserting the images reduces the stored rows, so act on a copy
        row = dict(ech.rows[idx])
        for op in ops:
            new = ech.insert(op(row))
            if new is not None:
                queue.append(new)
    return ech


def _quotient_tables(ops, ambient: SparseEchelon, sub_rows) -> tuple:
    """Sparse columns of the generator maps ``ops`` on (span of ambient) /
    (span of sub_rows), in the coordinates given by the ambient echelon
    rows that are not pivots of the sub-row coordinates."""
    sub = SparseEchelon()
    for row in sub_rows:
        sub.insert(ambient.coordinates(row))
    free = sorted(set(range(len(ambient))) - set(sub.pivot_of))
    index_of = {f: k for k, f in enumerate(free)}

    def column(op, f):
        rep = reduce_mod_rref(sub, ambient.coordinates(op(ambient.rows[f])))
        return tuple((index_of[c], val) for c, val in rep.items())

    return tuple(tuple(column(op, f) for f in free) for op in ops)


def build_induced_module(params: AlgebraParams, chars) -> ExplicitModule:
    """Module induced from one one-dimensional character per tensor factor
    of a parabolic subalgebra (factor sizes must sum to ``params.n``).

    The color constraints identify the quotient with the right ideal of
    ``B[a, id]``; the remaining Hecke constraints are quotiented out
    there.  The result is checked against the defining relations and the
    multinomial dimension count.
    """
    sizes = [len(ch.xi_colors) for ch in chars]
    if sum(sizes) != params.n:
        raise ValueError(f"factor sizes {sizes} do not sum to {params.n}")
    a = tuple(c for ch in chars for c in ch.xi_colors)
    # the value of each T_i inside a factor, None between two factors
    t_of = [t for ch in chars for t in (*ch.t_values, None)][:-1]

    keys, tables = _cached_block(params, tuple(sorted(a)))
    ops = [partial(_act, table) for table in tables]
    cyclic = keys.index((a, tuple(range(1, params.n + 1))))
    block = _closure(ops, [{cyclic: 1}])
    if len(block) != math.factorial(params.n):
        raise OracleError(
            f"right color block has rank {len(block)}, "
            f"expected {math.factorial(params.n)}")

    seeds = [accumulate(dict(tables[i][cyclic]), ((cyclic, -t),))
             for i, t in enumerate(t_of) if t is not None]
    hecke_ideal = _closure(ops, seeds)

    module = ExplicitModule(_quotient_tables(ops, block, hecke_ideal.rows))
    expected = math.factorial(params.n) // math.prod(map(math.factorial, sizes))
    if module.dim != expected:
        raise OracleError(
            f"induced module has dimension {module.dim}, expected {expected}")
    if not module_relations_ok(params, module):
        raise OracleError("induced module violates the defining relations")
    return module


def build_shape_module(params: AlgebraParams, shape) -> ExplicitModule:
    """Module induced from the one-dimensional module of the colorless
    Hecke subalgebra attached to a descent composition, on the basis
    ``e_c = B[c, id] (x) 1`` indexed by color words.

    The columns come from the displayed rules: every term ``B[c', w']``
    of the image of ``B[c, id]`` has ``w'`` the identity or ``s_i``, and
    ``B[c', w'] (x) 1 = L_{c'} (x) T_{w'} 1 = chi(T_{w'}) e_{c'}``, where
    ``chi(T_i)`` is -1 on the descents of the shape and 0 elsewhere."""
    if sum(shape) != params.n:
        raise ValueError(f"{shape} is not a composition of {params.n}")
    ds = descent_set(shape)
    ident = tuple(range(1, params.n + 1))
    chi = {ident: 1, **{_swap_values(ident, i): -1 if i in ds else 0
                        for i in range(1, params.n)}}
    words = list(itertools.product(range(1, params.r + 1), repeat=params.n))
    index = {w: k for k, w in enumerate(words)}

    def column(rule, g, c):
        return tuple(accumulate({}, ((index[cp], a * chi[wp]) for (cp, wp), a
                                     in rule(params, g, (c, ident)))).items())

    module = ExplicitModule(tuple(tuple(column(rule, g, c) for c in words)
                                  for rule, g in _generators(params)))
    if not module_relations_ok(params, module):
        raise OracleError("shape module violates the defining relations")
    return module


# ---------------------------------------------------------------------------
# composition factors from idempotent traces on the xi-weight spaces

def _weight_spaces(params, module) -> dict:
    """``{c: basis indices of weight c}``; raises :class:`OracleError`
    unless every xi column is diagonal with a parameter as its value."""
    weights = {}
    for k in range(module.dim):
        c = []
        for j, table in enumerate(module.tables[params.n - 1:], start=1):
            column = table[k]
            if column and (len(column) > 1 or column[0][0] != k):
                raise OracleError(
                    f"xi_{j} is not diagonal: column {k} is {column}")
            value = column[0][1] if column else 0
            if value not in params.u:
                raise OracleError(f"xi_{j} acts on basis vector {k} by "
                                  f"{value}, which is not a parameter")
            c.append(params.u.index(value) + 1)
        weights.setdefault(tuple(c), []).append(k)
    return weights


def composition_factors(params: AlgebraParams, module: ExplicitModule) -> Counter:
    """Multiset of one-dimensional characters in a composition series.

    A factor of weight ``c`` has ``t_i = -1`` where ``c_i < c_{i+1}`` and
    ``t_i = 0`` where ``c_i > c_{i+1}``.  For ``K`` inside
    ``J = {i : c_i = c_{i+1}}``, the trace of the idempotent
    ``e_K = pi_{w0(K)} L_c`` counts the factors of weight ``c`` with
    ``t_i = 0`` on ``K``; Moebius inversion over the subsets of ``J``
    gives the multiplicities.  The trace is the diagonal sum of
    ``pi_{w0(K)}`` over the weight space ``W_c``, its rank there since it
    is idempotent.  Raises :class:`OracleError` unless the basis is a
    weight basis, ``pi_{w0(K)}`` keeps ``W_c`` and is idempotent there,
    each trace is an integer, every multiplicity is nonnegative, every
    factor is in :func:`enumerate_one_dim_characters`, and the
    multiplicities add up to the dimension.
    """
    census = set(enumerate_one_dim_characters(params))
    dim = module.dim
    factors = Counter()
    for c, basis in _weight_spaces(params, module).items():
        span = set(basis)
        equal = [i for i in range(1, params.n) if c[i - 1] == c[i]]
        subsets = [frozenset(k) for size in range(len(equal) + 1)
                   for k in itertools.combinations(equal, size)]
        traces = {}
        for k in subsets:
            # the pi_i along a word give pi of its Demazure product, which
            # is w0(K) for (sorted K)^|K|: it contains a reduced word of w0(K)
            word = [module.tables[i - 1] for i in sorted(k) * len(k)]

            def pi(op):
                for table in word:
                    op = accumulate(_act(table, op), op.items())
                return op
            # all of W_c at once, as an operator keyed by column * dim + row
            image = pi({b * dim + b: 1 for b in basis})
            if not {key % dim for key in image} <= span:
                raise OracleError(f"pi_w0(K) maps the weight space of c = {c} "
                                  f"outside itself for K = {sorted(k)}")
            if pi(image) != image:
                raise OracleError(
                    f"e_K = pi_w0(K) L_c is not idempotent for K = {sorted(k)}, c = {c}")
            trace = sum(image.get(b * dim + b, 0) for b in basis)
            if trace != int(trace):
                raise OracleError(f"e_K has trace {trace} for K = {sorted(k)}, c = {c}")
            traces[k] = int(trace)
        for s in subsets:
            mult = sum((-1) ** len(k - s) * traces[k] for k in subsets if k >= s)
            if mult < 0:
                raise OracleError(
                    f"negative multiplicity {mult} at weight {c}, t = 0 on {sorted(s)}")
            if not mult:
                continue
            char = Character(c, tuple(
                -1 if c[i - 1] < c[i] or (c[i - 1] == c[i] and i not in s) else 0
                for i in range(1, params.n)))
            if char not in census:
                raise OracleError(
                    f"factor {char} is not a one-dimensional character; "
                    "this would falsify the classification of the simples")
            factors[char] += mult
    if sum(factors.values()) != dim:
        raise OracleError(
            f"composition factors count {sum(factors.values())}, "
            f"but the module has dimension {dim}")
    return factors


# ---------------------------------------------------------------------------
# submodule order and socle of the shape modules

def check_submodule_order(params: AlgebraParams, shape) -> dict:
    """In the shape module, the cyclic submodule of one color-word basis
    vector contains the one of another exactly when the second word is
    below the first in the sorting order of fillings of the shape."""
    module = build_shape_module(params, shape)
    words = list(itertools.product(range(1, params.r + 1), repeat=params.n))
    ops = [partial(_act, table) for table in module.tables]
    spans = {w: _closure(ops, [{k: 1}]) for k, w in enumerate(words)}
    below = {w: fillings_below(shape, w) for w in words}

    for k, c in enumerate(words):
        for cp in words:
            # M(c') is a submodule, so it contains M(c) iff it contains e_c
            contained = {k: 1} in spans[cp]
            expected = (c == cp) or (c in below[cp])
            if contained != expected:
                return {"check": "submodule-order",
                        "instance": f"shape={shape}", "pass": False,
                        "counterexample": {"c": list(c), "c_prime": list(cp),
                                           "contained": contained,
                                           "order": expected}}
    return {"check": "submodule-order", "instance": f"shape={shape}",
            "pass": True, "counterexample": None}


def _character_kernel(params, module, char) -> list:
    """Basis of the common kernel of ``g - chi(g)`` over the generators
    ``g``: the echelon rows with no ``(0, g, row)`` key, after each basis
    vector ``k`` is keyed ``(1, k)`` beside its image under every map."""
    values = char.t_values + tuple(params.u[c - 1] for c in char.xi_colors)
    ech = SparseEchelon()
    for k in range(module.dim):
        column = {(1, k): 1}
        for g, (table, value) in enumerate(zip(module.tables, values)):
            accumulate(column, (((0, g, row), x) for row, x in table[k]))
            accumulate(column, (((0, g, k), -value),))
        ech.insert(column)
    return [{key[1]: x for key, x in row.items()}
            for row, pivot in zip(ech.rows, ech.pivot_of) if pivot[0] == 1]


def check_socle(params: AlgebraParams, shape) -> dict:
    """The socle of a shape module is spanned exactly by the basis vectors
    whose color word makes the shape a cycloribbon."""
    module = build_shape_module(params, shape)
    words = list(itertools.product(range(1, params.r + 1), repeat=params.n))

    socle = SparseEchelon()
    for char in enumerate_one_dim_characters(params):
        for vec in _character_kernel(params, module, char):
            socle.insert(vec)
    # reduced echelon rows, so the socle is spanned by unit vectors
    # exactly when every row is one
    got = sorted(tuple(row.items()) for row in socle.rows)
    expected = [((k, 1),) for k, w in enumerate(words)
                if is_cycloribbon(ColoredRibbon(tuple(shape), w))]

    ok = got == expected
    return {"check": "socle", "instance": f"shape={shape}", "pass": ok,
            "counterexample": None if ok else {
                "socle_dim": len(got), "cycloribbon_count": len(expected)}}


# ---------------------------------------------------------------------------
# arbitration: combinatorial induction against explicit induction

def cross_check_induction(r: int, max_grade: int) -> dict:
    """Compare, for every pair of simple labels with total size up to
    ``max_grade``, the combinatorial composition factors of their
    induction product with the factors computed from an explicitly
    induced module.  This is the test that pins down the color
    convention of the product of simples.  The report's color-negation
    flag is always false: the CLI schema requires the key."""
    def factors(counts):
        return sorted((list(ch.xi_colors), list(ch.t_values), mult)
                      for ch, mult in counts.items())

    cases, failures = 0, []
    for total in range(2, max_grade + 1):
        params = AlgebraParams(total, r)
        for m in range(1, total):
            for a in enumerate_cycloribbons(m, r):
                for b in enumerate_cycloribbons(total - m, r):
                    cases += 1
                    expected = Counter()
                    for lab, mult in induce_simples(a, b).items():
                        expected[simple_character(lab)] += mult
                    module = build_induced_module(
                        params, [simple_character(a), simple_character(b)])
                    got = composition_factors(params, module)
                    if got != expected:
                        failures.append({
                            "lhs": {"shape": list(a.shape), "colors": list(a.colors)},
                            "rhs": {"shape": list(b.shape), "colors": list(b.colors)},
                            "combinatorial": factors(expected),
                            "oracle": factors(got)})
    return {"check": "induction-cross-check", "r": r, "max_grade": max_grade,
            "negate_colors": False, "cases": cases,
            "failures": failures, "pass": not failures}
