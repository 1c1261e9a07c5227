"""Monomials, weight vectors, and the weighted Borel order."""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, groupby
from operator import index, itemgetter, le, mul, sub


class DimensionMismatch(ValueError):
    """Raised when monomials or weight vectors disagree on the variable count."""


class _Frozen:
    """Base of the immutable value classes.

    Each ``__init__`` fills its slots with ``object.__setattr__``; assignment raises.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Monomial(_Frozen):
    """A monomial in a fixed number of variables, stored as an exponent vector.

    ``exponents[i]`` holds the exponent of the (i+1)-st variable; variable
    indices are 1-based throughout the public API.  The unit monomial is the
    all-zero vector.  Instances are immutable and hashable.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        exps = tuple(map(index, exponents))
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _of(cls, exponents: tuple[int, ...]) -> "Monomial":
        """Wrap a tuple of non-negative ints, skipping the conversion and check."""
        m = object.__new__(cls)
        object.__setattr__(m, "exponents", exponents)
        return m

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.exponents == other.exponents
        return NotImplemented

    def __hash__(self):
        return hash((self.exponents,))

    @classmethod
    def unit(cls, nvars: int) -> "Monomial":
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Monomial":
        """The monomial consisting of the single variable with 1-based ``index``."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        return cls(tuple(1 if i == index - 1 else 0 for i in range(nvars)))

    @classmethod
    def from_factors(cls, indices, nvars: int) -> "Monomial":
        """Build a monomial from a sequence of 1-based variable indices."""
        exps = [0] * nvars
        for i in indices:
            if not 1 <= i <= nvars:
                raise ValueError(f"variable index {i} out of range 1..{nvars}")
            exps[i - 1] += 1
        return cls(tuple(exps))

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def is_unit(self) -> bool:
        return not any(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        _check_nvars(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        _check_nvars(self, other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def times_variable(self, index: int) -> "Monomial":
        """Multiply by the variable with 1-based ``index``."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        exps = list(self.exponents)
        exps[index - 1] += 1
        return Monomial(tuple(exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_nvars(self, other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __repr__(self):
        return f"Monomial({self.exponents})"


class WeightVector(_Frozen):
    """A monotone non-increasing tuple of positive integer variable degrees."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[int, ...]):
        ws = tuple(map(index, weights))
        if not ws:
            raise ValueError("weight vector must not be empty")
        if ws[-1] < 1:
            raise ValueError(f"weights must be positive, got {ws}")
        if any(ws[i] < ws[i + 1] for i in range(len(ws) - 1)):
            raise ValueError(f"weights must be non-increasing, got {ws}")
        object.__setattr__(self, "weights", ws)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.weights == other.weights
        return NotImplemented

    def __hash__(self):
        return hash((self.weights,))

    def __repr__(self):
        return f"WeightVector(weights={self.weights!r})"

    @classmethod
    def ones(cls, nvars: int) -> "WeightVector":
        return cls((1,) * nvars)

    @property
    def nvars(self) -> int:
        return len(self.weights)

    @property
    def max_weight(self) -> int:
        # weights are non-increasing, so the first entry is the largest
        return self.weights[0]

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, pos):
        return self.weights[pos]


def _check_nvars(a, b):
    na = a.nvars if hasattr(a, "nvars") else len(a)
    nb = b.nvars if hasattr(b, "nvars") else len(b)
    if na != nb:
        raise DimensionMismatch(f"variable counts differ: {na} vs {nb}")


def factored_indices(m: Monomial) -> tuple[int, ...]:
    """The non-decreasing sequence of 1-based variable indices whose product is ``m``.

    The length of the sequence equals the total degree of ``m``; the unit
    monomial factors into the empty sequence.
    """
    out = []
    for i, e in enumerate(m.exponents, start=1):
        out.extend([i] * e)
    return tuple(out)


def weighted_degree(m: Monomial, w: WeightVector) -> int:
    """Degree of ``m`` when variable i has degree ``w[i]``."""
    _check_nvars(m, w)
    return sum(wi * ei for wi, ei in zip(w, m.exponents))


def psi(m: Monomial, w: WeightVector) -> Monomial:
    """Substitute each variable by the corresponding power prescribed by ``w``.

    The image of ``x_i`` is ``y_i^{w_i}``, so exponents are scaled
    componentwise and the standard degree of the image equals the weighted
    degree of ``m``.
    """
    _check_nvars(m, w)
    return Monomial(tuple(wi * ei for wi, ei in zip(w, m.exponents)))

def psi_inverse(u: Monomial, w: WeightVector):
    """Partial inverse of :func:`psi`.

    Returns the preimage monomial when every exponent of ``u`` is divisible
    by the matching weight, and ``None`` when ``u`` is not in the image.
    A ``None`` result is a normal outcome, not an error.
    """
    _check_nvars(u, w)
    exps = []
    for wi, ei in zip(w, u.exponents):
        q, r = divmod(ei, wi)
        if r:
            return None
        exps.append(q)
    return Monomial(tuple(exps))


def truncate(u: Monomial, d: int) -> Monomial:
    """Product of the ``d`` smallest-index variable factors of ``u``.

    It has ``min(P_k, d)`` factors of index ``<= k``, for ``P`` the prefix
    sums of ``u``'s exponents, so its exponents are those clamped sums' steps.
    """
    d = index(d)
    if d < 0:
        raise ValueError("truncation length must be non-negative")
    clamped = [min(p, d) for p in accumulate(u.exponents)]
    return Monomial._of(tuple(map(sub, clamped, [0] + clamped[:-1])))


def max_index(u: Monomial) -> int:
    """Largest 1-based index of a variable dividing ``u``.

    By convention the unit monomial has maximal index 1.
    """
    for i in range(u.nvars, 0, -1):
        if u.exponents[i - 1] > 0:
            return i
    return 1


def _prefix_sums(exponents, weights) -> tuple[int, ...]:
    """Weighted prefix sums ``P(u)_k = sum_{i<=k} w_i * u_i`` of an exponent vector.

    ``P(u)_k`` counts the factors of index at most ``k`` in the substituted
    image of ``u``, so the last entry is the weighted degree.
    """
    return tuple(accumulate(map(mul, weights, exponents)))


def _branch_limits(exponents, weights, bound: int) -> list[int]:
    """Branching limit of a seed at each weighted degree ``d < bound``.

    The least ``k`` with ``P_k > d`` for the seed's weighted prefix sums, or
    its maximal index once ``d`` reaches its weighted degree: the maximal
    index of the (d+1)-factor truncation of its substituted image.
    """
    prefix = _prefix_sums(exponents, weights)
    top = max((i for i, e in enumerate(exponents, start=1) if e), default=1)
    return [min(bisect_right(prefix, d) + 1, top) for d in range(bound)]


def _minimal_vectors(vectors) -> list[tuple[int, ...]]:
    """The componentwise-minimal vectors of a collection, in (sum, vector) order.

    Duplicates collapse and entries may be negative.  A vector is compared
    only with the kept vectors of smaller sum: of two distinct vectors with
    equal sums, neither lies at or below the other.  Minimal generators
    under divisibility, weighted Borel generators under prefix-sum dominance
    and the cone's essential rows are all this filter.
    """
    kept: list[tuple[int, ...]] = []
    for _, group in groupby(sorted((sum(v), v) for v in set(vectors)), key=itemgetter(0)):
        lower = tuple(kept)
        kept.extend(v for _, v in group if not any(all(map(le, k, v)) for k in lower))
    return kept


def w_borel_below(m: Monomial, u: Monomial, w: WeightVector) -> bool:
    """Whether ``u`` lies above ``m`` in the weighted Borel order.

    ``u`` dominates ``m`` when every weighted prefix sum of ``u`` is at
    least that of ``m``: ``P(u) >= P(m)`` componentwise.  This is the
    factored-form comparison of the substituted images (``u``'s image is
    at least as long and its k-th factor index is no larger, position by
    position), since ``P(u)_k`` counts the image's factors of index at
    most ``k``.  Equal monomials compare True.
    """
    _check_nvars(m, u)
    _check_nvars(m, w)
    return all(map(le, _prefix_sums(m.exponents, w), _prefix_sums(u.exponents, w)))


def meet_w(u: Monomial, v: Monomial, w: WeightVector):
    """Meet of ``u`` and ``v`` in the weighted Borel order.

    Its weighted prefix sums are the componentwise maxima of those of ``u``
    and ``v``, and its exponents are their steps divided by the weights.
    When these divide exactly, its principal closure is the intersection of
    the two principal closures.  Otherwise the result is ``None``; the
    intersection ideal is still available through ``MonomialIdeal.intersection``.
    """
    _check_nvars(u, v)
    _check_nvars(u, w)
    top = list(map(max, _prefix_sums(u.exponents, w), _prefix_sums(v.exponents, w)))
    return psi_inverse(Monomial(tuple(map(sub, top, [0] + top[:-1]))), w)
