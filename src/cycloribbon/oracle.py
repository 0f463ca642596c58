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
basis element, and one reader turns both into the sparse generator
columns of every module: of a block, each key its own vector, and of
every induced module.  One evaluator checks the relations on
such columns: the suite is compiled once per parameter set into integer
polynomials in generator words, and each term goes into its residual
by one ``_act`` of its first generator on the operator of the rest of
its word, each such suffix applied once to the identity operator (one
dict keyed by ``column * dim + row``).  On the
regular representation only the seed columns ``B[c, id]`` are needed:
``B[c, w]`` is ``B[c, id] T_w``, and once the tables of a block are
checked to commute with this right action of the ``T_j`` (the 0-Hecke
rule on the right), so does every relation, which therefore vanishes
on the block when it vanishes on the seeds.

An induced module needs no regular representation: the products of
simples are induced from a colored parabolic, the shape modules from the
colorless ``H_n(0)``, and one builder reads both on their coset basis
``B[c(s), s] (x) 1`` and certifies them by universality: a module of the
induced module's dimension that satisfies the relations and is generated
by a vector carrying the inducing character is the induced module.

Composition factors are read off from traces, with no quotient module:
on the weight space of a color word ``c`` the colors fix ``t_i`` except
where ``c_i = c_{i+1}``, and there Norton's 0-Hecke idempotents
``pi_i = 1 + T_i`` commute with ``L_c`` and count the rest.  The modules
are built on weight bases, on which each trace is a diagonal sum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .linalg import SparseEchelon
from .lincomb import FormalSum, accumulate
from .reptheory import Character, induce_simples, simple_character
from .ribbons import (
    ColoredRibbon,
    descent_set,
    enumerate_cycloribbons,
    fillings_below,
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
        # integral parameters stay ints: exact, and much cheaper than
        # Fraction; an int is kept as it is, without the Fraction round trip
        u = tuple(x if type(x) is int else
                  int(f) if (f := Fraction(x)).denominator == 1 else f
                  for x in self.u or range(1, self.r + 1))
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
    if w.index(i) < w.index(i + 1):    # length goes up
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


def _lagrange_apply(u, k, xi, sub, scale, v):
    """``l_k(xi) v`` for the projector onto the eigenvalue ``u_k``, as its defining
    product ``prod_{l != k} (xi - u_l) / (u_k - u_l)``, divided once at the end."""
    denom = 1
    for l, ul in enumerate(u, start=1):
        if l != k:
            v, denom = sub(xi(v), scale(ul, v)), denom * (u[k - 1] - ul)
    return scale(Fraction(1, denom), v)


# ---------------------------------------------------------------------------
# the defining relations, evaluated on sparse tables of generator columns

def _relation_suite(params: AlgebraParams, T, XI, add, sub, scale):
    """All defining relations at q = 0 as residual maps ``v -> LHS - RHS``
    applied to an abstract vector; the caller supplies the generator
    actions and the vector arithmetic."""
    n, u = params.n, params.u

    def lagrange_apply(k, j, v):
        return _lagrange_apply(u, k, partial(XI, j), sub, scale, v)

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


def _act(table, v: dict, out=None, scale=1) -> dict:
    """``out += scale * G v`` for the generator ``G`` whose sparse columns
    are ``table``, and ``v`` an operator stored as one dict keyed by
    ``column * dim + row`` (a plain vector is the operator of column 0);
    returns ``out``, a new dict if none is given.  As in
    :func:`~cycloribbon.lincomb.accumulate`, zeros are dropped and an
    integral Fraction is stored as an int."""
    dim, out = len(table), {} if out is None else out
    get = out.get
    for key, c in v.items():
        row = key % dim
        base, c = key - row, scale * c
        for k, a in table[row]:
            k += base
            x = get(k, 0) + c * a
            if x:
                out[k] = (x.numerator if type(x) is Fraction
                          and x.denominator == 1 else x)
            elif k in out:
                del out[k]
    return out


@lru_cache(maxsize=32)
def _relation_plan(params: AlgebraParams) -> tuple:
    """The relation suite compiled into polynomials in generator words: one
    ``(check, instance, terms)`` per relation, in suite order, each term
    ``(word, coeff)``.  A word is the tuple of table indices of its
    generators (``T_1..T_{n-1}``, then ``xi_1..xi_n``), the leftmost applied
    last.  Each polynomial is multiplied by the lcm of its denominators, so
    the coefficients are ints; a nonzero multiple of a residual has the
    same nonzero entries."""
    checks = _relation_suite(
        params,
        T=lambda i, v: {(i - 1,) + w: c for w, c in v.items()},
        XI=lambda j, v: {(params.n + j - 2,) + w: c for w, c in v.items()},
        add=lambda a, b: accumulate(dict(a), b.items()),
        sub=lambda a, b: accumulate(dict(a), b.items(), -1),
        scale=lambda s, a: accumulate({}, a.items(), s))
    plan = []
    for name, instance, residual in checks:
        poly = residual({(): 1})
        lcm = math.lcm(*(c.denominator for c in poly.values()))
        plan.append((name, instance, tuple((w, int(c * lcm)) for w, c in poly.items())))
    # the cache hands the plan to every caller, so it is made immutable
    return tuple(plan)


def _table_residuals(params, tables, columns=None) -> list:
    """``(check, instance, residual)`` for every defining relation, in
    suite order, on a representation whose generators ``T_1..T_{n-1},
    xi_1..xi_n`` act by the given tables of sparse columns.  A nonempty
    term goes into its residual, times its coefficient, by one ``_act`` of
    its first generator on the operator of the rest of its word, which is
    built the same way from the identity operator (or its given ``columns``
    only) and kept in a memo for the call.  A residual is keyed by
    ``column * dim + row``, is a nonzero integer multiple of the relation's
    own residual, and is empty (test ``not``; key 0 is falsy) exactly when
    the relation holds."""
    dim = len(tables[-1])
    ops = {(): {k * dim + k: 1
                for k in (range(dim) if columns is None else columns)}}

    def op(w):
        if w not in ops:
            ops[w] = _act(tables[w[0]], op(w[1:]))
        return ops[w]
    out = []
    for name, instance, terms in _relation_plan(params):
        residual = {}
        for word, coeff in terms:
            if word:
                _act(tables[word[0]], op(word[1:]), residual, coeff)
            else:
                accumulate(residual, ops[()].items(), coeff)
        # an emptied dict keeps its size, so keep a fresh one instead
        out.append((name, instance, residual or {}))
    return out


def _read_module(params, keys, reading) -> ExplicitModule:
    """The tables of ``T_1..T_{n-1}``, then ``xi_1..xi_n``, on one vector per key:
    column ``k`` is the rule on ``B[keys[k]]``, each image term ``B[k']`` read as
    the ``(vector, scale)`` pairs ``reading[k']``, an OracleError if the reading
    lacks it.  Equal entries and columns are stored once, as the tables of the blocks
    dominate memory: max RSS of ``verify_relations`` at (6, 2) is 46 MB, 58 MB without."""
    share = {}

    def column(rule, g, key):
        image, terms = {}, rule(params, g, key)
        try:
            for term, coeff in terms:
                accumulate(image, reading[term], coeff)
        except KeyError:
            raise OracleError(
                f"B{key} is mapped outside its color-content block") from None
        col = tuple(share.setdefault(e, e) for e in image.items())
        return share.setdefault(col, col)

    return ExplicitModule(tuple(tuple(column(rule, g, key) for key in keys)
                                for rule, last in ((_T_rule, params.n - 1),
                                                   (_xi_rule, params.n))
                                for g in range(1, last + 1)))


def _content_block(params: AlgebraParams, content: tuple) -> tuple:
    """The keys ``(c, w)`` with ``c`` a rearrangement of the sorted ``content``, in
    basis order, and their tables, each key read as its own vector: an image
    leaving the block raises :class:`OracleError`."""
    keys = tuple((c, w) for c in sorted(set(itertools.permutations(content)))
                 for w in itertools.permutations(range(1, params.n + 1)))
    return keys, _read_module(
        params, keys, {key: ((k, 1),) for k, key in enumerate(keys)}).tables


def _right_steps(n: int) -> tuple:
    """The right action ``rho_j(T_w) = T_w T_j`` by the 0-Hecke rule, ``w``
    given by its position ``p`` in ``itertools.permutations`` order (a block's
    order for one color word): ``rho[j - 1]`` is an :func:`_act` table whose
    column ``p`` is ``((position of w.s_j, 1),)`` when ``w(j) < w(j+1)``, else
    ``((p, -1),)``; ``firsts[j - 1]`` pairs the position of each ``w`` whose
    first descent is ``j`` with the position of ``w.s_j``."""
    perms = list(itertools.permutations(range(1, n + 1)))
    index = {w: p for p, w in enumerate(perms)}
    first = [next((j for j in range(1, n) if w[j - 1] > w[j]), 0) for w in perms]
    rho, firsts = [], []
    for j in range(1, n):
        shifted = [index[w[:j - 1] + (w[j], w[j - 1]) + w[j + 1:]] for w in perms]
        rho.append(tuple(((q, 1),) if w[j - 1] < w[j] else ((p, -1),)
                         for p, (w, q) in enumerate(zip(perms, shifted))))
        firsts.append(tuple((p, q) for p, q in enumerate(shifted) if first[p] == j))
    return tuple(rho), tuple(firsts)


def _right_equivariant(steps, tables) -> bool:
    """Whether the tables of a color-content block commute with the right
    action ``rho_j(B[c, w]) = B[c, w] T_j`` of every ``T_j``: for each
    ``w`` other than ``id`` and its first descent ``j``, the column at
    ``(c, w)`` must be ``rho_j`` of the column at ``(c, w.s_j)``, as
    ``B[c, w]`` is ``rho_j(B[c, w.s_j])``.  By induction on the length of
    ``w`` each column is then ``rho_w`` of the column at ``(c, id)``, and
    as the ``rho_j`` satisfy the 0-Hecke relations, ``G rho_j = rho_j G``
    for every table ``G`` and every ``j``.  A block lists each color word's
    ``n!`` positions in turn, so one ``_act`` of ``rho_j`` moves the rows of
    all the parent columns of a table at once, each within its color word;
    ``steps`` is :func:`_right_steps` of the block's ``n``."""
    dim = len(tables[-1])
    for step, pairs in zip(*steps):
        at = [(base + p, base + q) for base in range(0, dim, len(step))
              for p, q in pairs]
        for table in tables:
            moved = _act(step, {k * dim + row: a for k, q in at for row, a in table[q]})
            if moved != {k * dim + row: a for k, _ in at for row, a in table[k]}:
                return False
    return True


def verify_relations(params: AlgebraParams) -> list:
    """Check every defining relation on every basis element of the left
    regular representation.  Returns one report dict per relation
    instance, with a counterexample on failure: the least basis element
    with a nonzero residual, and its number of terms.

    Each color-content block is read once per call and not kept; an image
    leaving its block raises :class:`OracleError`.

    Every basis element is a seed ``B[c, id]`` moved by the right action:
    ``B[c, w] = rho_w(B[c, id])``, the algebra being free as a right
    ``H_n(0)``-module on the ``L_c``.  When :func:`_right_equivariant`
    certifies that the block's tables commute with every ``rho_j``, so
    does the polynomial ``M_R`` of each relation, and
    ``M_R B[c, w] = rho_w(M_R B[c, id])``: a relation that vanishes on
    the seeds vanishes on the block.  The residuals are then taken on the
    seed columns only, at positions ``0, n!, 2 n!, ...``; the least
    failing basis element of the block is ``(least failing c, id)``, with
    the same residual column, so the report is the one of all columns.  A
    block that fails the certificate is checked on every column."""
    found = {}   # (check, instance) -> least failing (key, residual terms)
    nf, steps = math.factorial(params.n), _right_steps(params.n)
    for content in itertools.combinations_with_replacement(
            range(1, params.r + 1), params.n):
        keys, tables = _content_block(params, content)
        dim = len(keys)
        seeds = range(0, dim, nf) if _right_equivariant(steps, tables) else None
        for name, instance, residual in _table_residuals(params, tables, seeds):
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


def _check_size(params: AlgebraParams, module: ExplicitModule):
    """Raise ValueError unless the module has ``2n - 1`` tables of one length."""
    shape = len(module.tables), sorted({len(table) for table in module.tables})
    if shape[0] != 2 * params.n - 1 or len(shape[1]) != 1:
        raise ValueError(f"need {2 * params.n - 1} tables of one length for n = "
                         f"{params.n}, got {shape[0]} tables of lengths {shape[1]}")


def module_relations_ok(params: AlgebraParams, module: ExplicitModule) -> bool:
    _check_size(params, module)
    return all(not residual for *_, residual in _table_residuals(params, module.tables))


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
# induced modules on their minimal-coset weight basis

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


def _coset_words(sizes) -> list:
    """The words increasing on each factor's positions, the longest last."""
    words, letters = [()], range(1, sum(sizes) + 1)
    for m in sizes:
        words = [w + block for w in words for block in
                 itertools.combinations([x for x in letters if x not in w], m)]
    return words


def _induce(params, keys, chi, seed, rank) -> ExplicitModule:
    """``A (x)_P chi`` on ``e_k = B[keys[k]] (x) 1``, each key ``(c, s)`` with ``s``
    a minimal coset word of ``P``, and ``chi`` the value of each generator of ``P``
    on ``1 (x) 1`` by table index.  A term ``B[c', w']`` of a rule's image reads
    ``e_k`` if it is ``B[keys[k]]``, ``t e_k`` if it is ``B[keys[k]] T_{g+1}``
    with ``chi[g] = t``, else 0.  Universality certifies it: ``A`` is free of
    ``rank`` as a right ``P``-module, so if the module has that dimension,
    satisfies the relations, and ``seed`` carries chi and generates it,
    ``1 (x) 1 -> seed`` is an onto module map of equal dimensions, an
    isomorphism.  A failed check is an OracleError."""
    reading = defaultdict(tuple)
    for k, (c, s) in enumerate(keys):
        reading[c, s] = ((k, 1),)
        reading.update(((c, s[:g] + (s[g + 1], s[g]) + s[g + 2:]), ((k, t),))
                       for g, t in chi.items() if g < params.n - 1)
    module = _read_module(params, keys, reading)
    if module.dim != rank:
        raise OracleError(f"induced module has dimension {module.dim}, expected {rank}")
    for g, value in chi.items():
        got = _act(module.tables[g], seed)
        if got != {k: value * x for k, x in seed.items() if value}:
            name = f"T_{g + 1}" if g < params.n - 1 else f"xi_{g + 2 - params.n}"
            raise OracleError(f"{name} acts on 1 (x) 1 by {got}, not {value}")
    generated = len(_closure([partial(_act, t) for t in module.tables], [seed]))
    if generated != module.dim:
        raise OracleError(f"1 (x) 1 generates a submodule of dimension {generated}, "
                          f"not the whole module of dimension {module.dim}")
    if not module_relations_ok(params, module):
        raise OracleError("induced module violates the defining relations")
    return module


def build_induced_module(params: AlgebraParams, chars) -> ExplicitModule:
    """``A (x)_P chi`` for one one-dimensional character per tensor factor
    of a parabolic ``P`` (sizes summing to ``params.n``, ``max(m - 1, 0)``
    t-values for a factor of size ``m``), on ``e_s = B[c(s), s] (x) 1`` for
    the words ``s`` increasing on every factor, ``c(s)_j = a[s^-1(j)]``
    with ``a`` the concatenated colors; the seed is ``e_id``.  Moving the
    projectors right through the ``T_i`` spans ``A`` by the ``T_w L_c``, so
    ``A`` is free as a right ``P``-module on the ``T_s``, of multinomial rank."""
    sizes = [len(ch.xi_colors) for ch in chars]
    if sum(sizes) != params.n:
        raise ValueError(f"factor sizes {sizes} do not sum to {params.n}")
    a, chi = (), {}      # chi: table index -> value on e_id
    for k, ch in enumerate(chars):
        if len(ch.t_values) != max(sizes[k] - 1, 0):
            raise ValueError(f"factor {k} {ch} needs {max(sizes[k] - 1, 0)} t-values")
        if not all(1 <= c <= params.r for c in ch.xi_colors):
            raise ValueError(f"factor {k} {ch} has a color outside 1..{params.r}")
        if sizes[k] and ch not in enumerate_one_dim_characters(
                AlgebraParams(sizes[k], params.r, params.u)):
            raise ValueError(f"factor {k} {ch} is not a one-dimensional character")
        chi.update(zip(range(len(a), len(a) + sizes[k] - 1), ch.t_values))
        a += tuple(ch.xi_colors)
    chi.update((params.n - 1 + j, params.u[c - 1]) for j, c in enumerate(a))
    keys = [(tuple(x for _, x in sorted(zip(s, a))), s) for s in _coset_words(sizes)]
    return _induce(params, keys, chi, {0: 1},
                   math.factorial(params.n) // math.prod(map(math.factorial, sizes)))


def build_shape_module(params: AlgebraParams, shape) -> ExplicitModule:
    """``A (x)_{H_n(0)} chi`` on ``e_c = B[c, id] (x) 1`` for the color words
    ``c``, with ``chi(T_i)`` -1 on the descents of the shape and 0 elsewhere.
    ``A`` is free as a right ``H_n(0)``-module on the ``L_c``, of rank ``r^n``,
    and the ``L_c`` sum to 1, so the seed is ``1 (x) 1 = sum_c e_c``."""
    if sum(shape) != params.n or any(p < 1 for p in shape):
        raise ValueError(f"{shape} is not a composition of {params.n}")
    ds, ident = descent_set(shape), tuple(range(1, params.n + 1))
    words = itertools.product(range(1, params.r + 1), repeat=params.n)
    return _induce(params, [(c, ident) for c in words],
                   {i - 1: -1 if i in ds else 0 for i in range(1, params.n)},
                   dict.fromkeys(range(params.r ** params.n), 1), params.r ** params.n)


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
    multiplicities add up to the dimension (ValueError: see :func:`_check_size`).
    """
    _check_size(params, module)
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
                    op = _act(table, op, dict(op))
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


def _character_kernel(t_tables, basis, t_values) -> list:
    """Basis of the common kernel of the ``T_i - t_i`` on the span of
    ``basis``, one weight space, on which every xi acts by its value: the
    echelon rows with no ``(0, i, row)`` key, after each basis vector
    ``k`` is keyed ``(1, k)`` beside its image under every ``T_i``."""
    ech = SparseEchelon()
    for k in basis:
        column = {(1, k): 1}
        for i, (table, value) in enumerate(zip(t_tables, t_values)):
            accumulate(column, (((0, i, row), x) for row, x in table[k]))
            accumulate(column, (((0, i, k), -value),))
        ech.insert(column)
    return [{key[1]: x for key, x in row.items()}
            for row, pivot in zip(ech.rows, ech.pivot_of) if pivot[0] == 1]


def check_socle(params: AlgebraParams, shape) -> dict:
    """The socle of a shape module is spanned exactly by the basis vectors
    whose color word makes the shape a cycloribbon."""
    module = build_shape_module(params, shape)
    words = list(itertools.product(range(1, params.r + 1), repeat=params.n))

    weights = _weight_spaces(params, module)
    socle = SparseEchelon()
    for char in enumerate_one_dim_characters(params):
        for vec in _character_kernel(module.tables[:params.n - 1],
                                     weights.get(char.xi_colors, ()), char.t_values):
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

    for name, value, least in (("r", r, 1), ("max_grade", max_grade, 0)):
        if value < least:
            raise ValueError(f"need {name} >= {least}, got {name} = {value}")
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
