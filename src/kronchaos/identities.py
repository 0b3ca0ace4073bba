"""Exact per-realization evaluators for the chaos and its decompositions.

Everything here is deterministic algebra on a fixed realization of the factor
vectors: the quadratic form itself, the partial-trace decompositions that
rewrite it, and the semi-decoupled terms whose moments bound it.  These
evaluators back both the exact identity suite and the Monte Carlo suites.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import AxisSetError
from .partitions import subsets
from .tensor import _LETTERS, ArrayLike, PartialArray, as_partial, doubled_order


def pair_contraction(A: ArrayLike, spec: dict) -> float:
    """Contract an order-2d array pairwise over its (l, l+d) axis pairs.

    ``spec`` maps each axis l in [d] to one of
      ("tie_sum",)            -- identify l and l+d and sum the diagonal
      ("tie_weight", w)       -- identify l and l+d, contract weight vector w
      ("vec2", u, v)          -- contract u on axis l and v on axis l+d
      ("kernel", M)           -- contract matrix M over the pair (l, l+d)
    """
    pa = as_partial(A)
    d = doubled_order(pa)
    if set(spec) != set(range(1, d + 1)):
        raise AxisSetError(f"spec must cover every axis in [{d}]")
    letters = list(_LETTERS[: 2 * d])
    operands = []
    subs = []
    for l in range(1, d + 1):
        kind = spec[l][0]
        la, lb = letters[l - 1], letters[l - 1 + d]
        if kind == "tie_sum":
            letters[l - 1 + d] = la
        elif kind == "tie_weight":
            letters[l - 1 + d] = la
            operands.append(np.asarray(spec[l][1]))
            subs.append(la)
        elif kind == "vec2":
            operands.append(np.asarray(spec[l][1]))
            subs.append(la)
            operands.append(np.asarray(spec[l][2]))
            subs.append(lb)
        elif kind == "kernel":
            operands.append(np.asarray(spec[l][1]))
            subs.append(la + lb)
        else:
            raise AxisSetError(f"unknown spec kind {kind!r}")
    expr = "".join(letters) + ("," + ",".join(subs) if subs else "") + "->"
    return float(np.einsum(expr, pa.data, *operands))


def chaos_quadratic(A: ArrayLike, factors: Sequence[np.ndarray]) -> float:
    """X^T A X for X the Kronecker product of the factors, via the order-2d sum."""
    spec = {l: ("vec2", x, x) for l, x in enumerate(factors, start=1)}
    return pair_contraction(A, spec)


def expected_quadratic(A: ArrayLike) -> float:
    """Expectation of X^T A X for isotropic factors: the all-pairs diagonal sum."""
    d = as_partial(A).order // 2
    return pair_contraction(A, {l: ("tie_sum",) for l in range(1, d + 1)})


def axis_marginal(B: ArrayLike, axes: Iterable[int]) -> PartialArray:
    """Sum a (partial) array over a subset of its axes."""
    pa = as_partial(B)
    axes = tuple(sorted(set(axes)))
    if not set(axes) <= set(pa.axes):
        raise AxisSetError(f"{axes} not a subset of {pa.axes}")
    keep = tuple(a for a in pa.axes if a not in axes)
    pos = tuple(pa.axes.index(a) for a in axes)
    data = np.add.reduce(pa.data, axis=pos) if pos else pa.data
    return PartialArray(keep, [pa.size(a) for a in keep], data)


def squared_product_sides(B: ArrayLike, factors: Sequence[np.ndarray]) -> tuple[float, float]:
    """Both sides of the square-expansion identity for an order-d array.

    Left: sum_i B_i prod_l (x^(l)_{i_l})^2.  Right: sum over subsets I of the
    I-marginal of B contracted against prod_{l not in I} [(x^(l))^2 - 1].
    """
    pa = as_partial(B)
    d = pa.order
    sq = [np.asarray(f) ** 2 for f in factors]
    letters = _LETTERS[:d]
    lhs = float(np.einsum(
        letters + "," + ",".join(letters[i] for i in range(d)) + "->",
        pa.data, *sq))
    rhs = 0.0
    for I in subsets(range(1, d + 1)):
        marg = axis_marginal(pa, I)
        rest = [l for l in range(1, d + 1) if l not in I]
        if not rest:
            rhs += float(marg.data)
            continue
        sub = _LETTERS[: len(rest)]
        rhs += float(np.einsum(
            sub + "," + ",".join(sub[i] for i in range(len(rest))) + "->",
            marg.data, *[sq[l - 1] - 1.0 for l in rest]))
    return lhs, rhs


def coupled_expansion_sides(A: ArrayLike, factors: Sequence[np.ndarray]) -> tuple[float, float]:
    """Both sides of the pairing decomposition of X^T A X.

    Left: sum over subsets I of the term with kernel x x^T - Id on the pairs
    in I and a diagonal sum on the rest.  Right: X^T A X itself.
    """
    d = len(factors)
    kernels = {}
    for l in range(1, d + 1):
        x = np.asarray(factors[l - 1])
        kernels[l] = np.outer(x, x) - np.eye(len(x))
    lhs = 0.0
    for I in subsets(range(1, d + 1)):
        spec = {}
        for l in range(1, d + 1):
            spec[l] = ("kernel", kernels[l]) if l in I else ("tie_sum",)
        lhs += pair_contraction(A, spec)
    return lhs, chaos_quadratic(A, factors)


def term_sets(d: int, I: Iterable[int], J: Iterable[int]) -> tuple[frozenset, frozenset]:
    """I and J of a semi-decoupled term as sets, checked to satisfy J <= I <= [d]."""
    I, J = frozenset(I), frozenset(J)
    if not J <= I or not I <= set(range(1, d + 1)):
        raise AxisSetError(f"need J <= I <= [{d}], got I={sorted(I)}, J={sorted(J)}")
    return I, J


def semi_decoupled_spec(d: int, I: Iterable[int], J: Iterable[int],
                        factors: Sequence[np.ndarray],
                        factors_bar: Sequence[np.ndarray]) -> dict:
    """:func:`pair_contraction` spec of one semi-decoupled term of the decoupling
    inequality's right-hand side.

    Sums A over the diagonal of the pairs in I \\ J, weights the pairs in J by
    (x^2 - 1), and contracts the complement axes against x and the independent
    copy x_bar.  Well defined for every J subset of I; the decoupling bound
    itself only sums the terms with I \\ J != [d].  The factors are single
    vectors; ``montecarlo.semi_decoupled_batch`` evaluates the same term over a
    sample batch.
    """
    I, J = term_sets(d, I, J)
    spec = {}
    for l in range(1, d + 1):
        if l in J:
            spec[l] = ("tie_weight", np.asarray(factors[l - 1]) ** 2 - 1.0)
        elif l in I:
            spec[l] = ("tie_sum",)
        else:
            spec[l] = ("vec2", factors[l - 1], factors_bar[l - 1])
    return spec


def backbone_term(A: ArrayLike, I: Iterable[int], J: Iterable[int],
                  factors: Sequence[np.ndarray]) -> float:
    """The coupled term with pairwise-distinct off-diagonal coordinates.

    The semi-decoupled term with factors_bar = factors, except the complement
    axes are restricted to coordinate pairs with i_l != i'_l.
    Summed over all valid (I, J) these terms reconstruct X^T A X exactly.
    """
    d = len(factors)
    I = frozenset(I)
    spec = semi_decoupled_spec(d, I, J, factors, factors)
    comp = sorted(set(range(1, d + 1)) - I)
    total = 0.0
    # inclusion-exclusion over which complement axes are forced onto the diagonal
    for K in subsets(comp):
        forced = {l: ("tie_weight", np.asarray(factors[l - 1]) ** 2) for l in K}
        total += (-1) ** len(K) * pair_contraction(A, {**spec, **forced})
    return total


def backbone_pairs(d: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (I, J) with J subset of I subset of [d] and I \\ J != [d]."""
    out = []
    for I in subsets(range(1, d + 1)):
        for J in subsets(I):
            if set(I) - set(J) != set(range(1, d + 1)):
                out.append((I, J))
    return out
