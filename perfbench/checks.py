"""Output checks by invariants that hold for any seed.

Every check takes plain data: ribbons as ``(shape, colors)``, colored
compositions as ``(parts, colors)``, formal sums as ``{label: coeff}``
and tensors as ``{(left, right): coeff}``.  The package's NamedTuple
labels are tuples, so library results are passed as they are; CLI JSON
is converted by :func:`json_label`.  Nothing here stores an output.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from labels import (
    algebra_dim,
    cross_check_case_count,
    cycloribbon_count,
    decomposition_row_sum,
    descents,
    is_anticycloribbon,
    is_cycloribbon,
    multipartition_count,
    relation_instance_count,
)


def _mask(shape) -> int:
    return sum(1 << (d - 1) for d in descents(shape))


def _nonneg_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def enumeration(n, r, ribbons) -> bool:
    """Right count, all cycloribbons, strictly increasing canonical order
    (hence distinct)."""
    shapes = set(shape for shape, _ in ribbons)
    masks = {shape: _mask(shape) for shape in shapes}
    steps = {shape: tuple(i in descents(shape) for i in range(1, n))
             for shape in shapes}
    keys = [(masks[shape], colors) for shape, colors in ribbons]
    return (len(ribbons) == cycloribbon_count(n, r)
            and all(sum(shape) == n == len(colors) and _fills(colors, steps[shape])
                    for shape, colors in ribbons)
            and all(a < b for a, b in zip(keys, keys[1:])))


def _fills(colors, column_steps) -> bool:
    for a, b, column in zip(colors, colors[1:], column_steps):
        if (a < b) if column else (a > b):
            return False
    return True


def cartan(n, r, rows, cols, entries) -> bool:
    """Square in the label counts, entries in N, every projective has a
    composition factor, and the entries add up to the algebra dimension
    (simples are one-dimensional)."""
    k = cycloribbon_count(n, r)
    return (len(rows) == k and len(cols) == k and len(entries) == k
            and all(is_cycloribbon(s, c) for s, c in cols)
            and all(len(row) == k and all(map(_nonneg_int, row)) and any(row)
                    for row in entries)
            and sum(map(sum, entries)) == algebra_dim(n, r))


def decomposition(n, r, rows, cols, entries) -> bool:
    """One row per multipartition, entries in N, row sums by the hook
    length formula."""
    return (len(rows) == multipartition_count(n, r)
            and len(cols) == cycloribbon_count(n, r)
            and all(len(row) == len(cols) and all(map(_nonneg_int, row))
                    and sum(row) == decomposition_row_sum(mp)
                    for mp, row in zip(rows, entries)))


def projective_dims(n, r, dims) -> bool:
    """One dimension per colored composition, summing to r^n n!."""
    return (len(dims) == cycloribbon_count(n, r) and all(d >= 1 for d in dims)
            and sum(dims) == algebra_dim(n, r))


def shuffle_product(a, b, terms) -> bool:
    """Induction product of two simples: binomial(m+k, m) composition
    factors, each a cycloribbon on the union of the two color multisets."""
    m, k = len(a[1]), len(b[1])
    colors = sorted(a[1] + b[1])
    return (all(_nonneg_int(c) and c > 0 for c in terms.values())
            and sum(terms.values()) == math.comb(m + k, m)
            and all(is_cycloribbon(s, c) and sorted(c) == colors
                    for s, c in terms))


def ribbon_product(a, b, terms) -> bool:
    """Colored ribbon rule: the concatenation, plus the glued label when
    the boundary colors agree, each once."""
    want = {(a[0] + b[0], a[1] + b[1]): 1}
    if a[0] and b[0] and a[1][-1] == b[1][0]:
        want[(a[0][:-1] + (a[0][-1] + b[0][0],) + b[0][1:], a[1] + b[1][1:])] = 1
    return dict(terms) == want


def concatenation_product(a, b, terms) -> bool:
    return dict(terms) == {(a[0] + b[0], a[1] + b[1]): 1}


def coproduct(basis, a, terms) -> bool:
    """Graded, counital (the terms with an empty side are exactly
    1 (x) a and a (x) 1), and for the complete basis the coefficients add
    up to prod(part + 1)."""
    n = sum(a[0])
    empty = ((), ())
    left_empty = {rt: c for (lt, rt), c in terms.items() if lt == empty}
    right_empty = {lt: c for (lt, rt), c in terms.items() if rt == empty}
    ok = (all(sum(lt[0]) + sum(rt[0]) == n for lt, rt in terms)
          and left_empty == {a: 1} and right_empty == {a: 1})
    if basis == "MR-S":
        ok = ok and sum(terms.values()) == math.prod(p + 1 for p in a[0])
    return ok


def deconcatenation(a, terms) -> bool:
    """Coproduct of a fundamental function: one cut after each cell, both
    halves cycloribbons whose colors concatenate to the input's."""
    n = len(a[1])
    cuts = sorted(len(lt[1]) for lt, _ in terms)
    return (cuts == list(range(n + 1)) and all(c == 1 for c in terms.values())
            and all(lt[1] + rt[1] == a[1] and is_cycloribbon(*lt)
                    and is_cycloribbon(*rt) for lt, rt in terms))


def relations(n, reports) -> bool:
    return (len(reports) == relation_instance_count(n)
            and all(rep["pass"] is True for rep in reports))


def arbitration(total, m, expected: Counter, got: Counter) -> bool:
    """The oracle's composition factors equal the combinatorial ones, and
    there are dim = binomial(total, m) of them."""
    return (got == expected and sum(got.values()) == math.comb(total, m)
            and all(len(ch.xi_colors) == total for ch in got))


def cross_check_report(r, max_grade, obj) -> bool:
    return (obj["pass"] is True and obj["failures"] == []
            and obj["cases"] == cross_check_case_count(r, max_grade))


# ---------------------------------------------------------------------------
# CLI JSON -> plain data

def json_label(obj) -> tuple:
    if "shape" in obj:
        return tuple(obj["shape"]), tuple(obj["colors"])
    return tuple(obj["parts"]), tuple(obj["colors"])


def json_terms(obj) -> dict:
    if "bases" in obj:
        return {(json_label(t["left"]), json_label(t["right"])): _coeff(t["coeff"])
                for t in obj["terms"]}
    return {json_label(t["label"]): _coeff(t["coeff"]) for t in obj["terms"]}


def _coeff(text):
    c = Fraction(text)
    return int(c) if c.denominator == 1 else c


def parse_ribbon_literal(text) -> tuple:
    shape, _, colors = text.partition("|")
    return (tuple(int(x) for x in shape.split(",") if x),
            tuple(int(x) for x in colors.split(",") if x))


def parse_multipartition_literal(text) -> tuple:
    return tuple(tuple(int(x) for x in comp.split(",") if x)
                 for comp in text.split(";"))
