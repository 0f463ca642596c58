"""Label-level combinatorics: examples pinned by hand plus exhaustive and
randomized properties on small sizes."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cycloribbon.reptheory import cartan_matrix
from cycloribbon.ribbons import (
    ColoredComposition,
    ColoredPermutation,
    ColoredRibbon,
    anticycloribbon_to_colored_comp,
    color_runs,
    colored_comp_to_anticycloribbon,
    colored_composition_literal,
    colored_composition_sort_key,
    colored_compositions,
    colored_descent_composition,
    composition_from_descents,
    compositions,
    descent_class_size,
    descent_set,
    enumerate_anticycloribbons,
    enumerate_cycloribbons,
    fillings_below,
    flip_ribbon,
    is_anticycloribbon,
    is_cycloribbon,
    max_inversion_perm,
    multipartitions,
    parse_colored_composition,
    parse_composition,
    parse_ribbon,
    ribbon_literal,
    ribbon_sort_key,
    shifted_shuffle,
    sorting_covers,
)


# property tests: the same examples on every run, few enough to keep the
# suite fast
PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)


@st.composite
def random_cycloribbons(draw, max_n=10, max_r=4):
    """A cycloribbon: any color word, where a color change forces the step
    and a repeated color takes either step."""
    r = draw(st.integers(1, max_r))
    colors = draw(st.lists(st.integers(1, r), max_size=max_n))
    ds = {i for i in range(1, len(colors))
          if colors[i - 1] > colors[i]
          or colors[i - 1] == colors[i] and draw(st.booleans())}
    return ColoredRibbon(composition_from_descents(len(colors), ds),
                         tuple(colors))


@st.composite
def random_colored_compositions(draw, max_n=7, max_r=4):
    r = draw(st.integers(1, max_r))
    n = draw(st.integers(0, max_n))
    ds = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    parts = composition_from_descents(n, ds)
    colors = draw(st.lists(st.integers(1, r), min_size=len(parts),
                           max_size=len(parts)))
    return ColoredComposition(parts, tuple(colors))


@st.composite
def random_ribbons(draw, max_n=10, max_r=12):
    """Any colored ribbon: a shape and one color per cell, with no step
    rule."""
    colors = draw(st.lists(st.integers(1, max_r), max_size=max_n))
    ds = draw(st.sets(st.integers(1, len(colors) - 1))) if len(colors) > 1 else set()
    return ColoredRibbon(composition_from_descents(len(colors), ds), tuple(colors))


def all_colored_ribbons(n, r):
    for shape in compositions(n):
        for colors in itertools.product(range(1, r + 1), repeat=n):
            yield ColoredRibbon(shape, colors)


# ---------------------------------------------------------------------------
# descent sets

def test_descent_set_examples():
    assert descent_set((2, 1)) == {2}
    assert descent_set((1, 3)) == {1}
    assert composition_from_descents(4, {1, 2}) == (1, 1, 2)


def test_descent_roundtrip():
    for n in range(7):
        for parts in compositions(n):
            assert composition_from_descents(n, descent_set(parts)) == parts


@pytest.mark.parametrize("bad", [{0}, {4}, {5}])
def test_descents_rejected(bad):
    with pytest.raises(ValueError):
        composition_from_descents(4, bad)


# ---------------------------------------------------------------------------
# enumeration

def test_five_fillings_of_shape_21():
    got = [rib.colors for rib in enumerate_cycloribbons(3, 2, shape=(2, 1))]
    assert got == [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)]


def test_counts_match_formula():
    assert len(enumerate_cycloribbons(2, 2)) == 6
    for n in range(7):
        for r in (1, 2, 3):
            expect = r * (r + 1) ** (n - 1) if n else 1
            assert len(enumerate_cycloribbons(n, r)) == expect
            assert len(enumerate_anticycloribbons(n, r)) == expect


def test_enumeration_against_predicate_filter():
    # independent route: generate all colored ribbons and filter
    n, r = 4, 3
    fast = enumerate_cycloribbons(n, r)
    slow = sorted(
        (rib for rib in all_colored_ribbons(n, r) if is_cycloribbon(rib)),
        key=lambda rib: (rib.size,))
    assert len(fast) == len(slow) == 3 * 4 ** 3
    assert set(fast) == set(slow)
    anti = enumerate_anticycloribbons(n, r)
    assert set(anti) == {rib for rib in all_colored_ribbons(n, r)
                         if is_anticycloribbon(rib)}


@pytest.mark.parametrize("predicate", [is_cycloribbon, is_anticycloribbon])
@pytest.mark.parametrize("rib", [
    ColoredRibbon((3,), (1,)),
    ColoredRibbon((0, 1), (1,)),
    ColoredRibbon((2, -1), (1,)),
    ColoredRibbon((1,), (1, 2)),
    ColoredRibbon((2,), (-1, 3)),
    ColoredRibbon((1,), (0,))],
    ids=["too_long", "zero_part", "negative_part", "too_short",
         "negative_color", "zero_color"])
def test_predicates_reject_malformed_shapes(predicate, rib):
    assert not predicate(rib)


def test_empty_ribbon():
    assert enumerate_cycloribbons(0, 3) == [ColoredRibbon((), ())]


def reference_fillings(n, r, shape, row_weakly_increasing):
    """Monotone fillings by a depth-first walk over (color, step) choices,
    then sorted: the reference for the enumerators, which grow the color
    words of each shape already in sort order."""
    def walk():
        if n == 0:
            yield ColoredRibbon((), ())
            return
        forced = None if shape is None else descent_set(shape)

        def extend(i, desc, colors):
            if i == n:
                yield ColoredRibbon(composition_from_descents(n, desc),
                                    tuple(colors))
                return
            last = colors[-1]
            for c in range(1, r + 1):
                if c == last:
                    steps = (False, True)
                elif (c > last) == row_weakly_increasing:
                    steps = (False,)  # row step forced
                else:
                    steps = (True,)   # column step forced
                for down in steps:
                    if forced is not None and (i in forced) != down:
                        continue
                    if down:
                        desc.append(i)
                    colors.append(c)
                    yield from extend(i + 1, desc, colors)
                    colors.pop()
                    if down:
                        desc.pop()

        for c0 in range(1, r + 1):
            yield from extend(1, [], [c0])

    return sorted(walk(), key=ribbon_sort_key)


def test_enumeration_matches_reference():
    for n in range(8):
        for r in range(1, 5):
            for shape in [None, *compositions(n)]:
                assert enumerate_cycloribbons(n, r, shape=shape) == \
                    reference_fillings(n, r, shape, True)
                assert enumerate_anticycloribbons(n, r, shape=shape) == \
                    reference_fillings(n, r, shape, False)


def test_enumeration_builds_each_color_word_once():
    ribs = enumerate_cycloribbons(6, 3)
    assert len(ribs) == 3 * 4 ** 5
    assert len({id(rib.colors) for rib in ribs}) <= 3 ** 6


@pytest.mark.parametrize("enum", [enumerate_cycloribbons,
                                  enumerate_anticycloribbons])
def test_enumeration_of_one_shape_builds_no_word_table(enum):
    # all 4**9 color words would take tens of MB; the 220 of one shape few kB
    tracemalloc.start()
    try:
        ribs = enum(9, 4, shape=(9,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ribs) == math.comb(12, 9)
    assert peak < 1_000_000


@pytest.mark.parametrize("enum", [enumerate_cycloribbons,
                                  enumerate_anticycloribbons])
@pytest.mark.parametrize("n, shape", [(3, (1, -1, 3)), (3, (3, 0)),
                                      (3, (0, 3)), (3, (2, 2)), (0, (0,))])
def test_enumeration_rejects_bad_shapes(enum, n, shape):
    with pytest.raises(ValueError):
        enum(n, 2, shape=shape)


def reference_colored_compositions(n, r):
    """Every colored composition of n, from all tuples of positive parts
    and all color words, then sorted: the reference for the enumerator,
    which yields them already in order."""
    out = [ColoredComposition(parts, cols)
           for k in range(n + 1)
           for parts in itertools.product(range(1, n + 1), repeat=k)
           if sum(parts) == n
           for cols in itertools.product(range(1, r + 1), repeat=k)]
    return sorted(out, key=colored_composition_sort_key)


def test_colored_compositions_match_reference():
    for n in range(7):
        for r in range(1, 5):
            assert colored_compositions(n, r) == \
                reference_colored_compositions(n, r)


@pytest.mark.parametrize("call, n", [
    (lambda: enumerate_cycloribbons(-1, 2), -1),
    (lambda: cartan_matrix(-1, 2), -1),
    (lambda: colored_compositions(-2, 2), -2),
    (lambda: multipartitions(-1, 2), -1)],
    ids=["enumerate_cycloribbons", "cartan_matrix", "colored_compositions",
         "multipartitions"])
def test_negative_size_names_n(call, n):
    with pytest.raises(ValueError, match=f"n = {n}$"):
        call()


def test_enumeration_list_shape_is_a_tuple():
    ribs = enumerate_cycloribbons(3, 2, shape=[2, 1])
    assert ribs == enumerate_cycloribbons(3, 2, shape=(2, 1))
    assert all(type(rib.shape) is tuple for rib in ribs)
    assert len(set(ribs)) == 5
    anti = enumerate_anticycloribbons(3, 2, shape=[1, 2])
    assert set(anti) == set(enumerate_anticycloribbons(3, 2, shape=(1, 2)))


# ---------------------------------------------------------------------------
# the flip involution

def test_flip_large_example():
    rib = ColoredRibbon((3, 1, 1, 1, 4), (1, 1, 3, 3, 3, 2, 1, 1, 4, 5))
    out = flip_ribbon(rib)
    assert out == ColoredRibbon((2, 1, 1, 4, 1, 1), rib.colors)
    assert flip_ribbon(out) == rib


def test_flip_small_examples():
    assert flip_ribbon(ColoredRibbon((4,), (2, 2, 2, 2))) == \
        ColoredRibbon((4,), (2, 2, 2, 2))
    assert flip_ribbon(ColoredRibbon((1, 1), (2, 1))) == \
        ColoredRibbon((2,), (2, 1))


def test_flip_is_an_involution_exhaustively():
    for n in range(6):
        for r in (1, 2, 3):
            for rib in all_colored_ribbons(n, r):
                assert flip_ribbon(flip_ribbon(rib)) == rib


def test_flip_swaps_the_two_families():
    for n in range(6):
        cyclo = enumerate_cycloribbons(n, 3)
        anti = enumerate_anticycloribbons(n, 3)
        assert sorted(map(flip_ribbon, cyclo)) == sorted(anti)
        assert sorted(map(flip_ribbon, anti)) == sorted(cyclo)


@PROPERTY
@given(random_cycloribbons())
def test_flip_is_an_involution_on_random_cycloribbons(rib):
    assert is_cycloribbon(rib)
    flipped = flip_ribbon(rib)
    assert is_anticycloribbon(flipped)
    assert flip_ribbon(flipped) == rib


# ---------------------------------------------------------------------------
# colored compositions vs anticycloribbons

def test_colored_comp_to_anticycloribbon_examples():
    assert colored_comp_to_anticycloribbon(ColoredComposition((2, 1), (2, 2))) \
        == ColoredRibbon((2, 1), (2, 2, 2))
    assert colored_comp_to_anticycloribbon(ColoredComposition((1, 1, 1), (2, 1, 2))) \
        == ColoredRibbon((2, 1), (2, 1, 2))
    assert colored_comp_to_anticycloribbon(ColoredComposition((4,), (3,))) \
        == ColoredRibbon((4,), (3, 3, 3, 3))


def test_anticycloribbon_rejects_wrong_family():
    with pytest.raises(ValueError):
        anticycloribbon_to_colored_comp(ColoredRibbon((2,), (1, 2)))


def test_colored_comp_bijection_exhaustive():
    for n in range(6):
        for r in (1, 2, 3):
            ccs = [ColoredComposition(parts, colors)
                   for parts in compositions(n)
                   for colors in itertools.product(range(1, r + 1),
                                                   repeat=len(parts))]
            seen = set()
            for cc in ccs:
                rib = colored_comp_to_anticycloribbon(cc)
                assert is_anticycloribbon(rib)
                assert anticycloribbon_to_colored_comp(rib) == cc
                seen.add(rib)
            assert seen == set(enumerate_anticycloribbons(n, r))


@PROPERTY
@given(random_colored_compositions(max_n=10))
def test_colored_comp_round_trip_on_random_labels(cc):
    rib = colored_comp_to_anticycloribbon(cc)
    assert is_anticycloribbon(rib)
    assert anticycloribbon_to_colored_comp(rib) == cc


@PROPERTY
@given(random_cycloribbons())
def test_anticycloribbon_round_trip_on_random_labels(rib):
    anti = flip_ribbon(rib)
    assert colored_comp_to_anticycloribbon(
        anticycloribbon_to_colored_comp(anti)) == anti


def test_color_runs_split_at_each_color_change():
    assert color_runs(ColoredComposition((1, 2, 1, 3), (1, 1, 2, 1))) == \
        [(1, (1, 2)), (2, (1,)), (1, (3,))]
    assert color_runs(ColoredComposition((), ())) == []


# ---------------------------------------------------------------------------
# sorting order on fillings

def test_sorting_covers_pinned_display():
    # ribbon with rows of lengths (2, 3, 1, 1) filled 2,1,1,3,3,4,3
    shape, colors = (2, 3, 1, 1), (2, 1, 1, 3, 3, 4, 3)
    assert sorted(sorting_covers(shape, colors)) == sorted([
        (1, 2, 1, 3, 3, 4, 3),     # sort the first row
        (2, 1, 1, 3, 4, 3, 3),     # sort the column pair below it
    ])
    assert fillings_below(shape, colors) == {
        (1, 2, 1, 3, 3, 4, 3),
        (2, 1, 1, 3, 4, 3, 3),
        (1, 2, 1, 3, 4, 3, 3),
    }


def test_sorting_covers_small():
    assert sorting_covers((2,), (1, 2)) == []
    assert sorting_covers((1, 1), (1, 2)) == [(2, 1)]


def test_minimal_fillings_are_the_cycloribbons():
    for n in range(1, 5):
        for r in (2, 3):
            for shape in compositions(n):
                for colors in itertools.product(range(1, r + 1), repeat=n):
                    minimal = not sorting_covers(shape, colors)
                    assert minimal == is_cycloribbon(ColoredRibbon(shape, colors))


def test_sorting_order_is_acyclic():
    for shape in [(2, 1), (1, 2), (3,), (1, 1, 1), (2, 2)]:
        n = sum(shape)
        for colors in itertools.product((1, 2), repeat=n):
            assert colors not in fillings_below(shape, colors)


# ---------------------------------------------------------------------------
# permutations

def inversions(word):
    return sum(1 for i, j in itertools.combinations(range(len(word)), 2)
               if word[i] > word[j])


def inverse_perm(word):
    inv = [0] * len(word)
    for i, v in enumerate(word):
        inv[v - 1] = i + 1
    return tuple(inv)


def descent_composition(word):
    """Composition recording the descents of a permutation word."""
    ds = {i for i in range(1, len(word)) if word[i - 1] > word[i]}
    return composition_from_descents(len(word), ds)


def test_descent_composition_example():
    assert descent_composition((2, 3, 1)) == (2, 1)


def brute_max_inversion(parts):
    n = sum(parts)
    best = max((w for w in itertools.permutations(range(1, n + 1))
                if descent_composition(w) == parts),
               key=inversions)
    return best


def test_max_inversion_perm_examples():
    assert max_inversion_perm((1, 1)) == (2, 1)
    assert max_inversion_perm((2,)) == (1, 2)
    assert max_inversion_perm((2, 1)) == (2, 3, 1)


def test_max_inversion_perm_against_brute_force():
    for n in range(1, 7):
        for parts in compositions(n):
            w = max_inversion_perm(parts)
            assert descent_composition(w) == parts
            assert w == brute_max_inversion(parts)


def test_descent_class_sizes():
    assert descent_class_size((2, 1)) == 2
    assert descent_class_size((5,)) == 1
    assert descent_class_size((1, 3)) == 3
    for n in range(1, 7):
        counts = {parts: 0 for parts in compositions(n)}
        for w in itertools.permutations(range(1, n + 1)):
            counts[descent_composition(w)] += 1
        for parts, count in counts.items():
            assert descent_class_size(parts) == count
    for n in range(1, 9):
        assert sum(descent_class_size(p) for p in compositions(n)) \
            == math.factorial(n)


# ---------------------------------------------------------------------------
# colored permutations

def test_colored_descent_composition_pinned():
    assert colored_descent_composition(
        ColoredPermutation((2, 1, 3, 4), (2, 1, 1, 2))) \
        == ColoredRibbon((1, 3), (2, 1, 1, 2))
    assert colored_descent_composition(
        ColoredPermutation((3, 2, 1, 4), (1, 2, 1, 2))) \
        == ColoredRibbon((2, 2), (1, 2, 1, 2))
    assert colored_descent_composition(
        ColoredPermutation((1, 2, 3), (2, 2, 2))) \
        == ColoredRibbon((3,), (2, 2, 2))


def test_colored_descent_composition_always_cycloribbon():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 7)
        word = list(range(1, n + 1))
        rng.shuffle(word)
        colors = tuple(rng.randint(1, 3) for _ in range(n))
        out = colored_descent_composition(ColoredPermutation(tuple(word), colors))
        assert is_cycloribbon(out)
        assert out.colors == colors


# ---------------------------------------------------------------------------
# the value-colored shuffle, kept as a reference: colors indexed by value,
# and a shuffle that looks each letter's color up by its value

def reference_inverse_colored_perm(p):
    """Invert a position-colored permutation; entry ``j`` of the returned
    colors is the color the value ``j`` carried in ``p``."""
    inv = inverse_perm(p.word)
    return ColoredPermutation(inv, tuple(p.colors[i - 1] for i in inv))


def value_colored(p):
    """The word of ``p`` with its colors indexed by value."""
    return ColoredPermutation(p.word, reference_inverse_colored_perm(p).colors)


def reference_shifted_shuffle(a, b):
    """Shifted shuffle of two value-colored permutations, returned
    position-colored."""
    m, n = len(a.word), len(b.word)
    letter_color = dict(enumerate(a.colors, start=1))
    letter_color.update((v + m, c) for v, c in enumerate(b.colors, start=1))
    shifted_b = [v + m for v in b.word]
    out = []
    for slots in itertools.combinations(range(m + n), m):
        word, ai, bi = [], 0, 0
        for pos in range(m + n):
            if pos in slots:
                word.append(a.word[ai])
                ai += 1
            else:
                word.append(shifted_b[bi])
                bi += 1
        out.append(ColoredPermutation(
            tuple(word), tuple(letter_color[v] for v in word)))
    return out


def colored_permutations(n, r):
    return [ColoredPermutation(word, colors)
            for word in itertools.permutations(range(1, n + 1))
            for colors in itertools.product(range(1, r + 1), repeat=n)]


def test_reference_inverse_colored_perm_examples():
    assert reference_inverse_colored_perm(ColoredPermutation((2, 1), (2, 1))) \
        == ColoredPermutation((2, 1), (1, 2))
    assert reference_inverse_colored_perm(ColoredPermutation((1, 2), (1, 2))) \
        == ColoredPermutation((1, 2), (1, 2))
    assert reference_inverse_colored_perm(
        ColoredPermutation((1, 2, 3), (2, 2, 2))) \
        == ColoredPermutation((1, 2, 3), (2, 2, 2))
    assert reference_inverse_colored_perm(
        ColoredPermutation((3, 1, 2), (2, 1, 3))) \
        == ColoredPermutation((2, 3, 1), (1, 3, 2))


def test_shifted_shuffle_matches_value_colored_reference():
    perms = {n: colored_permutations(n, 3) for n in range(4)}
    pairs = 0
    for m, n in itertools.product(range(4), repeat=2):
        if m + n > 4:
            continue
        for a in perms[m]:
            for b in perms[n]:
                assert shifted_shuffle(a, b) == reference_shifted_shuffle(
                    value_colored(a), value_colored(b))
                pairs += 1
    assert pairs == 1_780


def test_shifted_shuffle_pinned():
    lhs = ColoredPermutation((2, 1), (2, 1))
    rhs = ColoredPermutation((1, 2), (1, 2))
    words = shifted_shuffle(lhs, rhs)
    assert sorted(w.word for w in words) == sorted([
        (2, 1, 3, 4), (2, 3, 1, 4), (2, 3, 4, 1),
        (3, 2, 1, 4), (3, 2, 4, 1), (3, 4, 2, 1)])
    color = {1: 1, 2: 2, 3: 1, 4: 2}
    for w in words:
        assert w.colors == tuple(color[v] for v in w.word)


def test_shifted_shuffle_sizes():
    empty = ColoredPermutation((), ())
    one = ColoredPermutation((1,), (3,))
    assert shifted_shuffle(one, empty) == [one]
    assert len(shifted_shuffle(one, one)) == 2
    a = ColoredPermutation((2, 1, 3), (1, 2, 3))
    b = ColoredPermutation((1, 2), (2, 1))
    assert len(shifted_shuffle(a, b)) == math.comb(5, 2)
    for w in shifted_shuffle(a, b):
        assert sorted(w.word) == [1, 2, 3, 4, 5]
        assert [v for v in w.word if v <= 3] == [2, 1, 3]
        assert [v for v in w.word if v > 3] == [4, 5]


def test_inverse_perm():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        w = list(range(1, n + 1))
        rng.shuffle(w)
        w = tuple(w)
        assert inverse_perm(inverse_perm(w)) == w
        assert tuple(w[i - 1] for i in inverse_perm(w)) == tuple(range(1, n + 1))


# ---------------------------------------------------------------------------
# multipartitions and literals

def test_multipartitions():
    mps = multipartitions(2, 2)
    assert mps == [(((), (1, 1))), ((), (2,)), ((1,), (1,)),
                   ((1, 1), ()), ((2,), ())]
    assert len(multipartitions(4, 2)) == 20
    for mp in multipartitions(5, 3):
        assert sum(sum(c) for c in mp) == 5


def test_literals_roundtrip():
    rib = parse_ribbon("1,3|2,1,1,2")
    assert rib == ColoredRibbon((1, 3), (2, 1, 1, 2))
    assert parse_ribbon(ribbon_literal(rib)) == rib
    cc = parse_colored_composition("2^1.1^2.2^2.1^1.3^1")
    assert cc == ColoredComposition((2, 1, 2, 1, 3), (1, 2, 2, 1, 1))
    assert parse_colored_composition(colored_composition_literal(cc)) == cc
    assert parse_composition("2,1") == (2, 1)


@PROPERTY
@given(random_ribbons(), random_colored_compositions(max_n=12, max_r=12))
def test_literals_roundtrip_random_labels(rib, cc):
    assert parse_ribbon(ribbon_literal(rib)) == rib
    assert parse_colored_composition(colored_composition_literal(cc)) == cc


def test_empty_ribbon_literal():
    assert parse_ribbon("|") == ColoredRibbon((), ())


@pytest.mark.parametrize("text", ["1,3", "1,x|1,1", "2|1", "0,2|1,1"])
def test_bad_ribbon_literals(text):
    with pytest.raises(ValueError):
        parse_ribbon(text)


@pytest.mark.parametrize("text", ["2^", "2", "a^1", "1^1..2^2", "0^1"])
def test_bad_colored_composition_literals(text):
    with pytest.raises(ValueError):
        parse_colored_composition(text)
