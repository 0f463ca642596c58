"""Colored ribbon combinatorics.

A composition ``I = (i_1, ..., i_p)`` of ``n`` is drawn as a ribbon: rows
of lengths ``i_k``, each row hanging below the last cell of the previous
one (French notation, rows read top to bottom).  Cells are numbered
``1..n`` in reading order, and the step from cell ``i`` to cell ``i+1``
goes down (a "column step") exactly when ``i`` lies in the descent set
``D(I) = {i_1, i_1+i_2, ...}``; otherwise it goes right (a "row step").
All predicates below are phrased in terms of ``D(shape)`` so that no
drawing is ever needed.

A colored ribbon fills the cells with colors from ``{1, ..., r}``.  Two
monotone families of fillings play dual roles:

* cycloribbons: colors never decrease across a row step and never
  increase across a column step;
* anticycloribbons: the reversed inequalities.

There are ``r*(r+1)**(n-1)`` of each: the first cell picks one of ``r``
colors and every later cell either repeats the previous color (two
possible steps) or changes it (the step direction is then forced).
The involution :func:`flip_ribbon` exchanges the two families.

Colored permutations (a permutation word and, per position, the color
of the letter there) define the induction product: the shifted shuffle
of two class representatives (:func:`max_inversion_perm`), then the
descent composition of each word (:func:`shifted_shuffle`,
:func:`colored_descent_composition`).  ``hopf.qmr_product_F`` computes
the same terms from the cells without building the shuffled words.

All values are immutable and all functions are pure, so everything here
is safe to use concurrently.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

Composition = tuple  # tuple of positive ints
ColorWord = tuple    # tuple of ints in 1..r


class ColoredRibbon(NamedTuple):
    """A ribbon shape together with one color per cell."""

    shape: Composition
    colors: ColorWord

    @property
    def size(self):
        return len(self.colors)


class ColoredComposition(NamedTuple):
    """A composition together with one color per part."""

    parts: Composition
    colors: ColorWord

    @property
    def size(self):
        return sum(self.parts)


class ColoredPermutation(NamedTuple):
    """A permutation word of 1..n and, per position, its letter's color."""

    word: tuple
    colors: ColorWord

    @property
    def size(self):
        return len(self.word)


# ---------------------------------------------------------------------------
# compositions and descent sets

def descent_set(parts: Sequence[int]) -> set:
    """Partial sums of a composition, omitting the total.

    >>> sorted(descent_set((2, 1)))
    [2]
    >>> sorted(descent_set((1, 3)))
    [1]
    """
    out, total = set(), 0
    for p in parts[:-1]:
        total += p
        out.add(total)
    return out


def composition_from_descents(n: int, descents) -> Composition:
    """Inverse of :func:`descent_set` for subsets of ``{1, ..., n-1}``.

    >>> composition_from_descents(4, {1, 2})
    (1, 1, 2)
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    ds = sorted(descents)
    for d in ds:
        if not 1 <= d <= n - 1:
            raise ValueError(f"descent {d} outside 1..{n - 1}")
    prev, parts = 0, []
    for d in ds + [n]:
        parts.append(d - prev)
        prev = d
    if n == 0:
        return ()
    return tuple(parts)


def descent_bitmask(parts: Sequence[int]) -> int:
    """Descent set packed into an integer, bit ``i-1`` for descent ``i``."""
    mask, total = 0, 0
    for p in parts[:-1]:
        total += p
        mask |= 1 << (total - 1)
    return mask


def compositions(n: int) -> Iterator[Composition]:
    """All 2**(n-1) compositions of n, by increasing descent bitmask."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    return coarsenings((1,) * n)


def coarsenings(parts: Composition) -> Iterator[Composition]:
    """All compositions obtained by merging adjacent parts (incl. the input)."""
    p = len(parts)
    if p == 0:
        yield ()
        return
    for mask in range(1 << (p - 1)):
        out, acc = [], parts[0]
        for i in range(1, p):
            if mask >> (i - 1) & 1:
                out.append(acc)
                acc = parts[i]
            else:
                acc += parts[i]
        out.append(acc)
        yield tuple(out)


def partitions(n: int, largest: Optional[int] = None) -> Iterator[tuple]:
    """Partitions of n as weakly decreasing tuples, in descending lex order.

    >>> list(partitions(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# ribbon predicates, enumeration, the flip involution

def validate_ribbon(rib: ColoredRibbon) -> None:
    if sum(rib.shape) != len(rib.colors):
        raise ValueError(f"shape {rib.shape} does not match {len(rib.colors)} colors")
    if any(p < 1 for p in rib.shape):
        raise ValueError(f"non-positive part in {rib.shape}")
    if any(c < 1 for c in rib.colors):
        raise ValueError(f"non-positive color in {rib.colors}")


def _violations(shape: Composition, colors: ColorWord,
                row_weakly_increasing: bool) -> list:
    """Positions i where the step from cell i to cell i+1 breaks the step
    rule of :func:`_enumerate_fillings`: the color may rise only across a
    row step of a cycloribbon or a column step of an anticycloribbon, and
    may fall only across the other kind of step."""
    ds = descent_set(shape)
    return [i for i in range(1, len(colors))
            if (colors[i - 1] > colors[i] if (i in ds) != row_weakly_increasing
                else colors[i - 1] < colors[i])]


def _is_monotone(rib: ColoredRibbon, row_weakly_increasing: bool) -> bool:
    """Shared body of the predicates; a malformed shape, or a color below
    1, is neither."""
    return (min(rib.shape, default=1) >= 1 and sum(rib.shape) == rib.size
            and min(rib.colors, default=1) >= 1
            and not _violations(rib.shape, rib.colors, row_weakly_increasing))


def is_cycloribbon(rib: ColoredRibbon) -> bool:
    """Colors weakly increase across row steps, weakly decrease down columns."""
    return _is_monotone(rib, True)


def is_anticycloribbon(rib: ColoredRibbon) -> bool:
    """Colors weakly decrease across row steps, weakly increase down columns."""
    return _is_monotone(rib, False)


def _enumerate_fillings(n, r, shape, row_weakly_increasing):
    """Shared body of the cycloribbon/anticycloribbon enumerations, in
    :func:`ribbon_sort_key` order: shapes by increasing descent bitmask,
    and within a shape the color words grown cell by cell with the next
    color taken in increasing order, which keeps them lexicographic.

    A word is grown as its index in the lexicographic table of all r**n
    words (appending color c takes k to k*r + c - 1), so each word tuple
    is built once per call and shared by every shape that has it: all
    shapes read one ``itertools.product`` table, and a single shape
    decodes only its own words."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r = {r}")
    if shape is None:
        shapes = list(compositions(n))  # raises for n < 0
        word_of = list(itertools.product(range(1, r + 1), repeat=n)).__getitem__
    else:
        shape = tuple(shape)
        if sum(shape) != n or any(p < 1 for p in shape):
            raise ValueError(f"shape {shape} is not a composition of {n}")
        shapes = (shape,)

        def word_of(k):
            return tuple(k // r ** (n - 1 - i) % r + 1 for i in range(n))
    out = []
    for parts in shapes:
        ds = descent_set(parts)
        codes = range(r) if n else [0]
        for i in range(1, n):
            # the next color may be >= the last one exactly on a row step
            # of a cycloribbon or a column step of an anticycloribbon
            if (i in ds) != row_weakly_increasing:
                codes = [k * r + d for k in codes for d in range(k % r, r)]
            else:
                codes = [k * r + d for k in codes for d in range(k % r + 1)]
        # tuple.__new__ builds each ribbon without the Python-level frame
        # of the NamedTuple constructor
        out.extend(map(tuple.__new__, itertools.repeat(ColoredRibbon),
                       zip(itertools.repeat(parts), map(word_of, codes))))
    return out


def enumerate_cycloribbons(n: int, r: int, shape: Optional[Composition] = None) -> list:
    """All cycloribbons of size n with r colors, optionally of a fixed shape.

    The result is sorted by :func:`ribbon_sort_key`, hence deterministic.

    >>> [rib.colors for rib in enumerate_cycloribbons(3, 2, shape=(2, 1))]
    [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)]
    """
    return _enumerate_fillings(n, r, shape, True)


def enumerate_anticycloribbons(n: int, r: int, shape: Optional[Composition] = None) -> list:
    """Anticycloribbon counterpart of :func:`enumerate_cycloribbons`."""
    return _enumerate_fillings(n, r, shape, False)


def flip_ribbon(rib: ColoredRibbon) -> ColoredRibbon:
    """Involution exchanging cycloribbons and anticycloribbons.

    The colors are kept and the ribbon is rebuilt cell by cell: a repeated
    color keeps the step of the input, a changed color toggles it.

    >>> flip_ribbon(ColoredRibbon((1, 1), (2, 1)))
    ColoredRibbon(shape=(2,), colors=(2, 1))
    """
    ds = descent_set(rib.shape)
    c = rib.colors
    new_ds = set()
    for i in range(1, len(c)):
        if (c[i - 1] == c[i]) == (i in ds):
            new_ds.add(i)
    return ColoredRibbon(composition_from_descents(len(c), new_ds), c)


# ---------------------------------------------------------------------------
# colored compositions <-> anticycloribbons

def colored_comp_to_anticycloribbon(cc: ColoredComposition) -> ColoredRibbon:
    """Fill part k with its color; a part boundary becomes a column step
    exactly when the next part's color is >= the current one.  Positions
    inside a part stay row steps.  The output is an anticycloribbon.
    """
    if len(cc.parts) != len(cc.colors):
        raise ValueError(f"{len(cc.parts)} parts but {len(cc.colors)} colors")
    colors, ds, pos = [], set(), 0
    for k, (p, col) in enumerate(zip(cc.parts, cc.colors)):
        colors.extend([col] * p)
        pos += p
        if k + 1 < len(cc.parts) and col <= cc.colors[k + 1]:
            ds.add(pos)
    n = sum(cc.parts)
    return ColoredRibbon(composition_from_descents(n, ds), tuple(colors))


def anticycloribbon_to_colored_comp(rib: ColoredRibbon) -> ColoredComposition:
    """Inverse of :func:`colored_comp_to_anticycloribbon`: the
    :func:`cell_composition` of an anticycloribbon, rejecting others."""
    validate_ribbon(rib)
    if not is_anticycloribbon(rib):
        raise ValueError(f"{rib} is not an anticycloribbon")
    return cell_composition(rib)


def cell_composition(rib: ColoredRibbon) -> ColoredComposition:
    """Cut the cells at each color change and at each column step; each
    piece is one part, colored by its cells.  On cycloribbons this inverts
    the simple-quotient map ``hopf.projective_simple_quotient``."""
    c = rib.colors
    ds = descent_set(rib.shape)
    boundaries = [i for i in range(1, len(c))
                  if c[i - 1] != c[i] or i in ds]
    parts, colors, prev = [], [], 0
    for b in boundaries + [len(c)]:
        if b > prev:
            parts.append(b - prev)
            colors.append(c[prev])
        prev = b
    return ColoredComposition(tuple(parts), tuple(colors))


def color_runs(cc: ColoredComposition) -> list:
    """Maximal one-color runs of the parts, as (color, parts) pairs."""
    out, start, colors = [], 0, cc.colors
    for i in range(1, len(colors) + 1):
        if i == len(colors) or colors[i] != colors[i - 1]:
            out.append((colors[start], cc.parts[start:i]))
            start = i
    return out


def colored_compositions(n: int, r: int) -> list:
    """All colored compositions of n with r colors, canonically sorted: the
    shapes by descent bitmask, then the color words in product order."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r = {r}")
    return [ColoredComposition(parts, cols)
            for parts in compositions(n)
            for cols in itertools.product(range(1, r + 1), repeat=len(parts))]


# ---------------------------------------------------------------------------
# the sorting order on fillings of a fixed shape

def sorting_covers(shape: Composition, colors: ColorWord) -> list:
    """One-move sorts of a filling of ``shape``: sort an adjacent pair
    increasingly on a row step, decreasingly on a column step.  Each move
    produces a filling strictly below the input in the sorting order.

    >>> sorting_covers((1, 1), (1, 2))
    [(2, 1)]
    >>> sorting_covers((2,), (1, 2))
    []
    """
    out = []
    for i in _violations(shape, colors, True):
        swapped = list(colors)
        swapped[i - 1], swapped[i] = colors[i], colors[i - 1]
        out.append(tuple(swapped))
    return out


def fillings_below(shape: Composition, colors: ColorWord) -> set:
    """All fillings strictly below ``colors`` in the sorting order on
    fillings of ``shape`` (transitive closure of :func:`sorting_covers`)."""
    seen, stack = set(), [tuple(colors)]
    while stack:
        for cov in sorting_covers(shape, stack.pop()):
            if cov not in seen:
                seen.add(cov)
                stack.append(cov)
    return seen


# ---------------------------------------------------------------------------
# permutations

def max_inversion_perm(parts: Composition) -> tuple:
    """The permutation with the most inversions among those whose descent
    composition is ``parts``: each block takes the largest values still
    available, in increasing order.

    >>> max_inversion_perm((2, 1))
    (2, 3, 1)
    """
    out, hi = [], sum(parts)
    for p in parts:
        out.extend(range(hi - p + 1, hi + 1))
        hi -= p
    return tuple(out)


def shifted_shuffle(a: ColoredPermutation, b: ColoredPermutation) -> list:
    """Shifted shuffle of two colored permutations.

    The letters of ``b`` are shifted up by ``len(a)``; the result lists
    all interleavings of the (letter, color) pairs of ``a`` and of the
    shifted ``b`` that keep both orders, so every letter keeps its color.

    >>> for w in shifted_shuffle(ColoredPermutation((2, 1), (1, 2)),
    ...                          ColoredPermutation((1,), (1,))):
    ...     print(w.word, w.colors)
    (2, 1, 3) (1, 2, 1)
    (2, 3, 1) (1, 1, 2)
    (3, 2, 1) (1, 1, 2)
    """
    a_word, a_colors = a
    m, n = len(a_word), len(b.word)
    b_word, b_colors = tuple(v + m for v in b.word), b.colors
    out = []
    for slots in itertools.combinations(range(m + n), m):
        slot_set = set(slots)
        word, colors = [], []
        ai = bi = 0
        for pos in range(m + n):
            if pos in slot_set:
                word.append(a_word[ai])
                colors.append(a_colors[ai])
                ai += 1
            else:
                word.append(b_word[bi])
                colors.append(b_colors[bi])
                bi += 1
        out.append(ColoredPermutation(tuple(word), tuple(colors)))
    return out


def colored_descent_composition(p: ColoredPermutation) -> ColoredRibbon:
    """Cycloribbon attached to a position-colored permutation: position i
    is a column step when the color strictly drops, or when the color
    repeats and the letter drops.

    >>> colored_descent_composition(ColoredPermutation((2, 1, 3, 4), (2, 1, 1, 2)))
    ColoredRibbon(shape=(1, 3), colors=(2, 1, 1, 2))
    """
    w, u = p.word, p.colors
    ds = {i for i in range(1, len(w))
          if u[i - 1] > u[i] or (u[i - 1] == u[i] and w[i - 1] > w[i])}
    return ColoredRibbon(composition_from_descents(len(w), ds), u)


@lru_cache(maxsize=256)
def descent_class_size(parts: Composition) -> int:
    """Number of permutations whose descent composition is ``parts``,
    by inclusion-exclusion over coarsenings.

    >>> descent_class_size((2, 1))
    2
    """
    n = sum(parts)
    total = 0
    for coarse in coarsenings(parts):
        term = math.factorial(n)
        for q in coarse:
            term //= math.factorial(q)
        total += (-1) ** (len(parts) - len(coarse)) * term
    return total


# ---------------------------------------------------------------------------
# canonical sort keys (shape as descent bitmask, then colors)

def ribbon_sort_key(rib: ColoredRibbon):
    return (rib.size, descent_bitmask(rib.shape), rib.colors)


def colored_composition_sort_key(cc: ColoredComposition):
    return (cc.size, descent_bitmask(cc.parts), cc.colors)


def multipartition_sort_key(mp):
    return (tuple(sum(comp) for comp in mp), mp)


def multipartitions(n: int, r: int) -> list:
    """r-tuples of partitions with total size n, sorted by the size vector
    and then componentwise."""
    def split(remaining, k):
        if k == 1:
            for lam in partitions(remaining):
                yield (lam,)
            return
        for here in range(remaining + 1):
            for lam in partitions(here):
                for rest in split(remaining - here, k - 1):
                    yield (lam,) + rest

    if r < 1:
        raise ValueError(f"need r >= 1, got r = {r}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    return sorted(split(n, r), key=multipartition_sort_key)


# ---------------------------------------------------------------------------
# text literals ("shape|colors" for ribbons, "len^color." for colored
# compositions); these are the grammars used by the command line tool

def _parse_int_list(text: str, what: str, offset: int = 0) -> tuple:
    if text == "":
        return ()
    out, pos = [], 0
    for piece in text.split(","):
        if not piece.strip().isdecimal():
            raise ValueError(
                f"position {offset + pos}: expected a positive integer "
                f"{what}, got {piece!r}")
        out.append(int(piece))
        pos += len(piece) + 1
    return tuple(out)


def parse_composition(text: str) -> Composition:
    parts = _parse_int_list(text.strip(), "part")
    if any(p < 1 for p in parts):
        raise ValueError(f"non-positive part in {text!r}")
    return parts


def parse_ribbon(text: str) -> ColoredRibbon:
    """Parse a ``"shape|colors"`` literal, e.g. ``"1,3|2,1,1,2"``.

    >>> parse_ribbon("1,3|2,1,1,2")
    ColoredRibbon(shape=(1, 3), colors=(2, 1, 1, 2))
    """
    if "|" not in text:
        raise ValueError(f"position {len(text)}: expected '|' between shape and colors")
    shape_text, _, colors_text = text.partition("|")
    shape = parse_composition(shape_text)
    colors = _parse_int_list(colors_text.strip(), "color", offset=len(shape_text) + 1)
    rib = ColoredRibbon(shape, colors)
    validate_ribbon(rib)
    return rib


def ribbon_literal(rib: ColoredRibbon) -> str:
    return "{}|{}".format(",".join(map(str, rib.shape)),
                          ",".join(map(str, rib.colors)))


def parse_colored_composition(text: str) -> ColoredComposition:
    """Parse a ``"len^color."``-joined literal, e.g. ``"2^1.1^2.3^1"``.

    >>> parse_colored_composition("2^1.1^2")
    ColoredComposition(parts=(2, 1), colors=(1, 2))
    """
    if text.strip() == "":
        return ColoredComposition((), ())
    parts, colors, pos = [], [], 0
    for piece in text.split("."):
        if piece.count("^") != 1:
            raise ValueError(f"position {pos}: expected 'length^color', got {piece!r}")
        a, b = piece.split("^")
        if not a.isdecimal() or not b.isdecimal() or int(a) < 1 or int(b) < 1:
            raise ValueError(f"position {pos}: bad part {piece!r}")
        parts.append(int(a))
        colors.append(int(b))
        pos += len(piece) + 1
    return ColoredComposition(tuple(parts), tuple(colors))


def colored_composition_literal(cc: ColoredComposition) -> str:
    return ".".join(f"{p}^{c}" for p, c in zip(cc.parts, cc.colors))


def multipartition_literal(mp) -> str:
    """Partitions joined by ';', parts by ',': ((1,1),()) -> '1,1;'."""
    return ";".join(",".join(map(str, comp)) for comp in mp)
