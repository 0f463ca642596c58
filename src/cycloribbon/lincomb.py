"""Formal sums over tagged basis labels, with exact coefficients.

A :class:`LinComb` stores a basis tag and a map from labels to nonzero
coefficients (Python ints, or :class:`fractions.Fraction` when a value
is not integral).  The tags in use are:

======== ===============================================================
MR-S     complete basis of the colored noncommutative symmetric
         functions; labels are colored compositions
MR-R     colored ribbon basis of the same algebra
QMR-F    fundamental basis of the colored quasi-symmetric functions;
         labels are cycloribbons
SYM-h    monomials in the complete homogeneous functions of r variable
         sets; labels are sorted tuples of (color, degree) pairs
NCSF-R   ordinary ribbon basis of noncommutative symmetric functions;
         labels are compositions
======== ===============================================================

JSON serialization keeps coefficients as exact decimal strings (``"p/q"``
when not integral) so that round trips are bit-exact.
"""

from __future__ import annotations

from fractions import Fraction

from .ribbons import (
    ColoredComposition,
    ColoredRibbon,
    colored_composition_sort_key,
    descent_bitmask,
    ribbon_sort_key,
)

MR_S = "MR-S"
MR_R = "MR-R"
QMR_F = "QMR-F"
SYM_H = "SYM-h"
NCSF_R = "NCSF-R"

BASES = (MR_S, MR_R, QMR_F, SYM_H, NCSF_R)


def accumulate(acc: dict, items, scale=1) -> dict:
    """Add ``scale * coeff`` into ``acc`` for every ``(key, coeff)`` of
    ``items``, dropping zeros and turning integral Fractions into ints;
    returns ``acc``."""
    get = acc.get
    for key, coeff in items:
        coeff = get(key, 0) + scale * coeff
        if coeff:
            acc[key] = (coeff.numerator if type(coeff) is Fraction
                        and coeff.denominator == 1 else coeff)
        elif key in acc:
            del acc[key]
    return acc


def label_sort_key(basis, label):
    if basis in (MR_S, MR_R):
        return colored_composition_sort_key(label)
    if basis == QMR_F:
        return ribbon_sort_key(label)
    if basis == SYM_H:
        return (sum(d for _, d in label), label)
    if basis == NCSF_R:
        return (sum(label), descent_bitmask(label), label)
    raise ValueError(f"unknown basis {basis!r}")


class FormalSum:
    """A tag naming the basis and a dict from labels to nonzero exact
    coefficients.  Subclasses give the constructor signature, the sort
    key of the labels and the repr; the arithmetic is shared."""

    __slots__ = ("tag", "terms")

    def __init__(self, tag, terms=()):
        self.tag = tag
        self.terms = accumulate(
            {}, terms.items() if hasattr(terms, "items") else terms)

    @classmethod
    def _wrap(cls, tag, terms):
        # ``terms`` must already hold only nonzero, normalized coefficients
        out = object.__new__(cls)
        out.tag = tag
        out.terms = terms
        return out

    def sort_key(self, label):
        return label

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self.sort_key(kv[0]))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (type(self) is type(other) and self.tag == other.tag
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.tag, frozenset(self.terms.items())))

    def _combine(self, other, scale):
        if type(self) is not type(other) or self.tag != other.tag:
            raise ValueError(f"basis mismatch: {self.tag} vs {other.tag}")
        return self._wrap(self.tag, accumulate(dict(self.terms),
                                               other.terms.items(), scale))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        return self._wrap(self.tag, accumulate({}, self.terms.items(), scalar))


class LinComb(FormalSum):
    """A formal sum of basis labels with exact coefficients."""

    __slots__ = ()

    def __init__(self, basis, terms=()):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        super().__init__(basis, terms)

    @property
    def basis(self):
        return self.tag

    @classmethod
    def single(cls, basis, label, coeff=1):
        return cls(basis, [(label, coeff)])

    def coefficient(self, label):
        return self.terms.get(label, 0)

    def sort_key(self, label):
        return label_sort_key(self.tag, label)

    def __repr__(self):
        bits = " + ".join(f"{c}*{l}" for l, c in self.sorted_terms())
        return f"LinComb({self.tag}, {bits or 0})"


class TensorComb(FormalSum):
    """A formal sum of pairs of labels, one basis tag per tensor factor."""

    __slots__ = ()

    def __init__(self, bases, terms=()):
        bases = tuple(bases)
        if len(bases) != 2 or not all(b in BASES for b in bases):
            raise ValueError(f"not a pair of known bases: {bases!r}")
        super().__init__(bases, terms)

    @property
    def bases(self):
        return self.tag

    def sort_key(self, pair):
        b1, b2 = self.tag
        return label_sort_key(b1, pair[0]), label_sort_key(b2, pair[1])

    def __repr__(self):
        bits = " + ".join(f"{c}*{l}x{m}" for (l, m), c in self.sorted_terms())
        return f"TensorComb({self.tag}, {bits or 0})"


# ---------------------------------------------------------------------------
# JSON codecs

def coeff_to_str(c) -> str:
    return str(Fraction(c))


def coeff_from_str(s: str):
    c = Fraction(s)
    return c.numerator if c.denominator == 1 else c


def label_to_json(basis, label):
    if basis in (MR_S, MR_R):
        return {"parts": list(label.parts), "colors": list(label.colors)}
    if basis == QMR_F:
        return {"shape": list(label.shape), "colors": list(label.colors)}
    if basis == SYM_H:
        return {"factors": [[c, d] for c, d in label]}
    if basis == NCSF_R:
        return {"parts": list(label)}
    raise ValueError(f"unknown basis {basis!r}")


def label_from_json(basis, obj):
    if basis in (MR_S, MR_R):
        return ColoredComposition(tuple(obj["parts"]), tuple(obj["colors"]))
    if basis == QMR_F:
        return ColoredRibbon(tuple(obj["shape"]), tuple(obj["colors"]))
    if basis == SYM_H:
        return tuple((c, d) for c, d in obj["factors"])
    if basis == NCSF_R:
        return tuple(obj["parts"])
    raise ValueError(f"unknown basis {basis!r}")


def lincomb_to_json(lc: LinComb) -> dict:
    return {"basis": lc.basis,
            "terms": [{"coeff": coeff_to_str(c),
                       "label": label_to_json(lc.basis, l)}
                      for l, c in lc.sorted_terms()]}


def lincomb_from_json(obj: dict) -> LinComb:
    basis = obj["basis"]
    return LinComb(basis, [(label_from_json(basis, t["label"]),
                            coeff_from_str(t["coeff"]))
                           for t in obj["terms"]])


def tensorcomb_to_json(tc: TensorComb) -> dict:
    b1, b2 = tc.bases
    return {"bases": [b1, b2],
            "terms": [{"coeff": coeff_to_str(c),
                       "left": label_to_json(b1, l),
                       "right": label_to_json(b2, m)}
                      for (l, m), c in tc.sorted_terms()]}

