"""Labels and closed forms re-derived for the benchmark.

Inputs are generated here from a seed, and the checks compare the
program's outputs with the counts below, so neither depends on the code
being measured.  Labels are plain tuples: a ribbon is ``(shape, colors)``
and a colored composition is ``(parts, colors)``.

Cycloribbon convention (the package's ``is_cycloribbon``): after cell i,
a row step needs ``c[i-1] <= c[i]`` and a column step (i in the descent
set of the shape) needs ``c[i-1] >= c[i]``.
"""

from __future__ import annotations

import itertools
import math


def descents(shape) -> set:
    out, total = set(), 0
    for p in shape[:-1]:
        total += p
        out.add(total)
    return out


def shape_from_descents(n: int, ds) -> tuple:
    if n == 0:
        return ()
    cuts = sorted(ds) + [n]
    return tuple(b - a for a, b in zip([0] + cuts[:-1], cuts))


def is_cycloribbon(shape, colors) -> bool:
    if sum(shape) != len(colors) or any(p < 1 for p in shape):
        return False
    ds = descents(shape)
    return all((colors[i - 1] >= colors[i]) if i in ds
               else (colors[i - 1] <= colors[i])
               for i in range(1, len(colors)))


def is_anticycloribbon(shape, colors) -> bool:
    if sum(shape) != len(colors) or any(p < 1 for p in shape):
        return False
    ds = descents(shape)
    return all((colors[i - 1] <= colors[i]) if i in ds
               else (colors[i - 1] >= colors[i])
               for i in range(1, len(colors)))


def _steps(last: int, r: int):
    """The r+1 ways to extend a cycloribbon by one cell after color
    ``last``: the same color by a row or a column step, or another color
    with the step that color forces."""
    out = [(last, False), (last, True)]
    out.extend((c, c < last) for c in range(1, r + 1) if c != last)
    return out


def random_cycloribbon(rng, n: int, r: int) -> tuple:
    """Uniform over the r(r+1)^(n-1) cycloribbons of size n."""
    colors, ds = [rng.randint(1, r)], set()
    for i in range(1, n):
        c, down = rng.choice(_steps(colors[-1], r))
        colors.append(c)
        if down:
            ds.add(i)
    return shape_from_descents(n, ds), tuple(colors)


def all_cycloribbons(n: int, r: int) -> list:
    out = []
    for shape in compositions(n):
        for colors in itertools.product(range(1, r + 1), repeat=n):
            if is_cycloribbon(shape, colors):
                out.append((shape, colors))
    return out


def compositions(n: int):
    for mask in range(1 << max(n - 1, 0)):
        yield shape_from_descents(n, {i + 1 for i in range(n - 1) if mask >> i & 1})


def random_colored_composition(rng, n: int, r: int) -> tuple:
    parts = rng.choice(list(compositions(n)))
    return parts, tuple(rng.randint(1, r) for _ in parts)


def ribbon_literal(rib) -> str:
    shape, colors = rib
    return f"{','.join(map(str, shape))}|{','.join(map(str, colors))}"


def colored_composition_literal(cc) -> str:
    return ".".join(f"{p}^{c}" for p, c in zip(*cc))


# ---------------------------------------------------------------------------
# closed forms

def cycloribbon_count(n: int, r: int) -> int:
    return r * (r + 1) ** (n - 1) if n else 1


def algebra_dim(n: int, r: int) -> int:
    return r ** n * math.factorial(n)


def standard_tableaux(lam) -> int:
    """f^lambda by the hook length formula."""
    if not lam:
        return 1
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])]
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(sum(lam)) // hooks


def decomposition_row_sum(mp) -> int:
    """Sum of the fundamental coefficients of a product of Schur functions
    in independent variable sets: n!/prod |lambda_i|! * prod f^lambda_i
    (exponential specialization)."""
    sizes = [sum(lam) for lam in mp]
    out = math.factorial(sum(sizes))
    for s in sizes:
        out //= math.factorial(s)
    for lam in mp:
        out *= standard_tableaux(lam)
    return out


def multipartition_count(n: int, r: int) -> int:
    def p(k):
        return sum(1 for _ in _partitions(k, k))
    return sum(math.prod(p(k) for k in sizes)
               for sizes in itertools.product(range(n + 1), repeat=r)
               if sum(sizes) == n)


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def relation_instance_count(n: int) -> int:
    """Number of relation instances of the presentation on n strands:
    quadratic, braid, far commutation of T's, characteristic polynomial
    of each xi, commuting xi's, cross and sum commutation, T-xi
    commutation."""
    return ((n - 1) + max(n - 2, 0) + max(n - 2, 0) * max(n - 3, 0) // 2
            + n + n * (n - 1) // 2 + 2 * (n - 1) + (n - 1) * max(n - 2, 0))


def cross_check_case_count(r: int, max_grade: int) -> int:
    return sum(cycloribbon_count(m, r) * cycloribbon_count(t - m, r)
               for t in range(2, max_grade + 1) for m in range(1, t))
