"""Partition norms of dense arrays.

For a partition (I_1, ..., I_kappa) of the axes, the norm is the supremum of
the full contraction of the array against one unit-Frobenius block array per
partition block.  kappa = 1 is the Frobenius norm, kappa = 2 the spectral
norm of a matricization; both are computed exactly.  For kappa >= 3 the
supremum is NP-hard in general and is estimated by alternating maximization
(higher-order power method) over seeded random restarts; such values are
certified lower bounds, never exact.  The restarts of one estimate run as one
batch on a leading axis, and each keeps the arithmetic of a run on its own.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, AxisSetError, SizeError
from .partitions import Partition
from .tensor import _LETTERS, ArrayLike, PartialArray, as_partial, doubled_order, frobenius

# Grid size cap for the brute-force candidate product.
_BRUTE_COMBO_CAP = 2_000_000
_BRUTE_BLOCK_CAP = 16
# Random unit candidates per block in the brute-force grid, halved until the grid fits the cap.
_BRUTE_RANDOM = 32


@dataclass(frozen=True)
class NormOptions:
    """Knobs for the iterative norm estimators.

    ``restarts``, ``max_iter``, ``tol`` and ``seed`` change the estimated
    values, so every report config records them.  ``threads`` changes nothing:
    the restarts run as one batch in one thread.  It stays only because the
    benchmark's job configs pass it and the golden ``bounds`` configs record
    it, and it goes with the next change to the benchmark.
    """

    restarts: int = 32
    max_iter: int = 500
    tol: float = 1e-10
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        # ALS keeps the best restart, so it needs at least one.
        if self.restarts < 1:
            raise ArgumentError(f"restarts must be >= 1, got {self.restarts}")
        # the seed keys numpy generators, which take only non-negative integers
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")


DEFAULT_OPTIONS = NormOptions()


@dataclass
class RestartResult:
    value: float
    factors: tuple[np.ndarray, ...]
    converged: bool
    iterations: int


@dataclass
class NormEstimate:
    """A partition-norm value plus provenance of how it was obtained."""

    value: float
    method: str  # frobenius-exact | spectral-exact | als | brute-force
    partition: Partition
    restarts_used: int = 0
    certified_lower_bound: bool = False
    converged: bool = True
    iterations: int = 0
    factors: tuple[np.ndarray, ...] | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def kappa(self) -> int:
        return self.partition.kappa


def _coerce_partition(pa: PartialArray, P) -> Partition:
    if not isinstance(P, Partition):
        P = Partition(P)
    if set(P.ground) != set(pa.axes):
        raise AxisSetError(f"partition ground {P.ground} does not match array axes {pa.axes}")
    return P


def _block_positions(pa: PartialArray, P: Partition) -> list[tuple[int, ...]]:
    return [tuple(pa.axes.index(a) for a in block) for block in P.blocks]


def _subscripts(order: int, positions: Sequence[tuple[int, ...]]):
    """einsum strings: per-block update contractions plus the full objective."""
    axes_sub = _LETTERS[:order]
    block_subs = ["".join(axes_sub[p] for p in pos) for pos in positions]
    update = []
    for r in range(len(positions)):
        others = ",".join(block_subs[q] for q in range(len(positions)) if q != r)
        lhs = axes_sub + ("," + others if others else "")
        update.append(f"{lhs}->{block_subs[r]}")
    objective = axes_sub + "," + ",".join(block_subs) + "->"
    return update, objective


def matricize(B: ArrayLike, row_axes: Iterable[int], col_axes: Iterable[int]) -> np.ndarray:
    """Merge ``row_axes`` into rows and ``col_axes`` into columns.

    Row/column flattening follows the same convention as flat array storage:
    ascending axis label, first label slowest.
    """
    pa = as_partial(B)
    rows = tuple(sorted(row_axes))
    cols = tuple(sorted(col_axes))
    if not rows or not cols:
        raise AxisSetError("row and column axis sets must be nonempty")
    if set(rows) & set(cols) or set(rows) | set(cols) != set(pa.axes):
        raise AxisSetError(f"{rows} and {cols} must partition the axes {pa.axes}")
    perm = [pa.axes.index(a) for a in rows + cols]
    nrow = int(np.prod([pa.size(a) for a in rows]))
    ncol = int(np.prod([pa.size(a) for a in cols]))
    return pa.data.transpose(perm).reshape(nrow, ncol)


def norm_objective(B: ArrayLike, P, factors: Sequence[np.ndarray]) -> float:
    """Exact value of the contraction of B against the given block arrays."""
    pa = as_partial(B)
    P = _coerce_partition(pa, P)
    positions = _block_positions(pa, P)
    _, objective = _subscripts(pa.order, positions)
    return float(np.einsum(objective, pa.data, *factors))


def _random_factors(shapes, rng) -> list[np.ndarray]:
    out = []
    for shape in shapes:
        v = rng.standard_normal(shape)
        nv = np.sqrt((v * v).sum())
        out.append(v / nv if nv > 0 else np.full(shape, 1.0 / np.sqrt(np.prod(shape))))
    return out


def _batched(update_sub: str) -> str:
    """An update einsum with the restart letter Z on every factor and the output.

    ``abcdef,ab,cd->ef`` becomes ``abcdef,Zab,Zcd->Zef``; a one-block update
    ``abc->abc`` gains a Z operand that ``_als_runs`` fills with ones.
    """
    lhs, out = update_sub.split("->")
    data, *others = lhs.split(",")
    return ",".join([data] + ["Z" + o for o in others or [""]]) + "->Z" + out


def _als_runs(data, positions, update_subs, inits, rngs, max_iter, tol) -> list[RestartResult]:
    """Alternating maximization from every start in ``inits`` at once.

    The restarts sit on a leading axis of each stacked block factor, and each
    restart leaves the batch once it converges.  The data is contracted in C
    order, neither flattened nor permuted, so every restart keeps the
    summation order of a run on its own: a restart's result is bit-identical
    to a one-start call.  A block whose update vanishes is re-randomized from
    that restart's own ``rngs`` entry.
    """
    data = np.ascontiguousarray(data)
    kappa = len(positions)
    subs = [_batched(s) for s in update_subs]
    factors = [np.stack([np.asarray(init[r], dtype=np.float64) for init in inits])
               for r in range(kappa)]
    live = np.arange(len(inits))  # restart index of each batch row
    value = np.zeros(len(inits))
    prev = np.full(len(inits), -np.inf)
    results: list[RestartResult | None] = [None] * len(inits)

    def leave(rows, converged: bool, iterations: int):
        for i in rows:
            results[live[i]] = RestartResult(float(value[i]), tuple(f[i].copy() for f in factors),
                                             converged, iterations)

    iterations = 0
    while iterations < max_iter and len(live):
        iterations += 1
        for r in range(kappa):
            others = [factors[q] for q in range(kappa) if q != r] or [np.ones(len(live))]
            v = np.einsum(subs[r], data, *others)
            flat = v.reshape(len(live), -1)
            nv = np.sqrt((flat * flat).sum(axis=1))
            stalled = nv == 0.0
            v /= np.where(stalled, 1.0, nv).reshape((-1,) + (1,) * (v.ndim - 1))
            if stalled.any():
                for i in np.flatnonzero(stalled):
                    v[i] = _random_factors([v.shape[1:]], rngs[live[i]])[0]
                nv = np.where(stalled, value, nv)
            factors[r] = v
            value = nv
        done = value - prev <= tol * np.maximum(np.abs(value), 1e-300)
        if done.any():
            leave(np.flatnonzero(done), True, iterations)
            live, value = live[~done], value[~done]
            factors = [f[~done] for f in factors]
        prev = value
    leave(range(len(live)), False, iterations)
    return results


def _run_estimate(best: RestartResult, method: str, P: Partition, runs: int,
                  max_iter: int) -> NormEstimate:
    """The certified lower bound set by the best of ``runs`` alternating runs."""
    est = NormEstimate(best.value, method, P, runs, True, best.converged, best.iterations,
                       best.factors)
    if not best.converged:
        est.warnings.append(f"als did not converge within {max_iter} iterations")
    return est


def _als_estimate(pa: PartialArray, P: Partition, opts: NormOptions, method: str,
                  start: Sequence[np.ndarray] | None = None) -> NormEstimate:
    """Best of ``opts.restarts`` seeded random restarts, plus one run from
    ``start`` under the next restart index when given."""
    positions = _block_positions(pa, P)
    update_subs, _ = _subscripts(pa.order, positions)
    shapes = [tuple(pa.sizes[p] for p in pos) for pos in positions]
    rngs = [np.random.default_rng((opts.seed, 0x6E6F726D, idx))
            for idx in range(opts.restarts + (start is not None))]
    inits = [_random_factors(shapes, rng) for rng in rngs[:opts.restarts]]
    if start is not None:
        inits.append(list(start))
    results = _als_runs(pa.data, positions, update_subs, inits, rngs, opts.max_iter, opts.tol)
    best = max(range(len(results)), key=lambda i: (results[i].value, -i))
    return _run_estimate(results[best], method, P, len(results), opts.max_iter)


def _sign_candidates(m: int) -> np.ndarray:
    """All +-1 patterns of length m with leading +, normalized to unit norm."""
    rows = []
    for mask in range(1 << (m - 1)):
        v = np.ones(m)
        for i in range(m - 1):
            if mask >> i & 1:
                v[i + 1] = -1.0
        rows.append(v / np.sqrt(m))
    return np.array(rows)


def _brute_estimate(pa: PartialArray, P: Partition, opts: NormOptions) -> NormEstimate:
    positions = _block_positions(pa, P)
    shapes = [tuple(pa.sizes[p] for p in pos) for pos in positions]
    sizes = [int(np.prod(s)) for s in shapes]
    if any(m > _BRUTE_BLOCK_CAP for m in sizes):
        raise ArgumentError(f"brute-force requires every block dimension product <= {_BRUTE_BLOCK_CAP}")

    rng = np.random.default_rng((opts.seed, 0x62727574))
    n_random = _BRUTE_RANDOM
    while True:
        cand = []
        for m in sizes:
            mats = [np.eye(m)]
            if m <= 5:
                mats.append(_sign_candidates(m))
            if n_random > 0:
                r = rng.standard_normal((n_random, m))
                mats.append(r / np.linalg.norm(r, axis=1, keepdims=True))
            cand.append(np.concatenate(mats, axis=0))
        combos = int(np.prod([c.shape[0] for c in cand]))
        if combos <= _BRUTE_COMBO_CAP or n_random == 0:
            break
        n_random //= 2
    if combos > _BRUTE_COMBO_CAP:
        raise SizeError(f"brute-force grid of {combos} combinations is too large")

    kappa = len(positions)
    axes_sub = _LETTERS[: pa.order]
    cand_letters = string.ascii_uppercase[:kappa]
    terms = [cand_letters[r] + "".join(axes_sub[p] for p in positions[r]) for r in range(kappa)]
    sub = axes_sub + "," + ",".join(terms) + "->" + cand_letters
    grid = np.einsum(sub, pa.data, *cand)
    flat = np.argmax(np.abs(grid))
    picks = np.unravel_index(flat, grid.shape)
    start = [cand[r][picks[r]].reshape(shapes[r]) for r in range(kappa)]
    if grid[picks] < 0:
        start[0] = -start[0]

    update_subs, _ = _subscripts(pa.order, positions)
    [polished] = _als_runs(pa.data, positions, update_subs, [start], [rng], opts.max_iter, opts.tol)
    return _run_estimate(polished, "brute-force", P, combos, opts.max_iter)


def tensor_norm(B: ArrayLike, P, opts: NormOptions | None = None, method: str | None = None) -> NormEstimate:
    """Partition norm of B, exact where possible.

    ``method`` may force "als" or "brute-force"; by default kappa = 1 uses the
    Frobenius norm, kappa = 2 the largest singular value of the matricization,
    and kappa >= 3 alternating maximization with restarts.
    """
    opts = opts or DEFAULT_OPTIONS
    pa = as_partial(B)
    P = _coerce_partition(pa, P)
    kappa = P.kappa

    if not np.any(pa.data):
        return NormEstimate(
            value=0.0,
            method=method or ("frobenius-exact" if kappa == 1 else "spectral-exact" if kappa == 2 else "als"),
            partition=P,
            certified_lower_bound=False,
            factors=None,
        )

    if method == "brute-force":
        return _brute_estimate(pa, P, opts)
    if method == "als":
        return _als_estimate(pa, P, opts, "als")
    if method not in (None,):
        raise ArgumentError(f"unknown method {method!r}")

    if kappa == 1:
        value = frobenius(pa)
        return NormEstimate(
            value=value,
            method="frobenius-exact",
            partition=P,
            factors=(pa.data / value,),
        )
    if kappa == 2:
        M = matricize(pa, P.blocks[0], P.blocks[1])
        u, s, vt = np.linalg.svd(M)
        shapes = [tuple(pa.size(a) for a in block) for block in P.blocks]
        return NormEstimate(
            value=float(s[0]),
            method="spectral-exact",
            partition=P,
            factors=(u[:, 0].reshape(shapes[0]), vt[0].reshape(shapes[1])),
        )
    return _als_estimate(pa, P, opts, "als")


def merge_blocks(P: Partition, i: int, j: int) -> Partition:
    """Partition obtained by merging blocks i and j of P."""
    if i == j or not (0 <= i < P.kappa and 0 <= j < P.kappa):
        raise ArgumentError(f"invalid block pair ({i}, {j}) for kappa = {P.kappa}")
    blocks = [b for r, b in enumerate(P.blocks) if r not in (i, j)]
    blocks.append(tuple(sorted(P.blocks[i] + P.blocks[j])))
    return Partition(blocks, ground=P.ground)


def _lift_merged_factor(block_a, block_b, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Outer product of two block factors arranged on the sorted union axes."""
    union = tuple(sorted(block_a + block_b))
    sub_a = "".join(_LETTERS[union.index(x)] for x in block_a)
    sub_b = "".join(_LETTERS[union.index(x)] for x in block_b)
    out = _LETTERS[: len(union)]
    return np.einsum(f"{sub_a},{sub_b}->{out}", fa, fb)


@dataclass
class MergeSplitReport:
    """Outcome of checking the two norm inequalities between a partition and a coarsening."""

    split_value: float
    merged_value: float
    factor_bound: float
    split_method: str
    merged_method: str
    lift_max_error: float
    finer_le_coarser: bool
    coarser_le_factor_times_finer: bool
    passed: bool


def verify_merge_split(B: ArrayLike, P_split, merge_pair: tuple[int, int],
                       opts: NormOptions | None = None, slack: float = 1e-6) -> MergeSplitReport:
    """Check ||B||_split <= ||B||_merged <= sqrt(min(N_a, N_b)) * ||B||_split.

    The first inequality is made robust by lifting the split optimizer to a
    merged feasible point of equal objective; the second by deriving a
    split feasible point from the merged optimizer through an exact singular
    value decomposition of the contracted matrix.
    """
    opts = opts or DEFAULT_OPTIONS
    pa = as_partial(B)
    P_split = _coerce_partition(pa, P_split)
    i, j = merge_pair
    block_a, block_b = P_split.blocks[i], P_split.blocks[j]
    P_merged = merge_blocks(P_split, i, j)
    union = tuple(sorted(block_a + block_b))
    scale = max(1.0, frobenius(pa))

    est_split = tensor_norm(pa, P_split, opts)
    est_merged = tensor_norm(pa, P_merged, opts)

    # Constructive direction: the split optimizer lifts to a merged feasible
    # point with the same objective.
    lift_err = 0.0
    merged_value = est_merged.value
    if est_split.factors is not None:
        by_block = dict(zip(P_split.blocks, est_split.factors))
        by_block[union] = _lift_merged_factor(block_a, block_b, by_block.pop(block_a),
                                              by_block.pop(block_b))
        val = norm_objective(pa, P_merged, [by_block[b] for b in P_merged.blocks])
        lift_err = abs(val - est_split.value)
        merged_value = max(merged_value, val)

    # Reverse direction: contract against the merged optimizer's other blocks,
    # take the top singular pair of the resulting matrix as a split point.
    split_value = est_split.value
    if est_merged.factors is not None:
        r = P_merged.blocks.index(union)
        update_subs, _ = _subscripts(pa.order, _block_positions(pa, P_merged))
        others = [f for q, f in enumerate(est_merged.factors) if q != r]
        tilde = np.einsum(update_subs[r], pa.data, *others)
        tilde_pa = PartialArray(union, [pa.size(a) for a in union], tilde, copy=False)
        sigma = float(np.linalg.svd(matricize(tilde_pa, block_a, block_b), compute_uv=False)[0])
        split_value = max(split_value, sigma)

    na = int(np.prod([pa.size(a) for a in block_a]))
    nb = int(np.prod([pa.size(a) for a in block_b]))
    factor_bound = float(np.sqrt(min(na, nb)))

    ineq1 = split_value <= merged_value + slack * scale
    ineq2 = merged_value <= factor_bound * split_value * (1.0 + slack) + 1e-300
    return MergeSplitReport(
        split_value=split_value,
        merged_value=merged_value,
        factor_bound=factor_bound,
        split_method=est_split.method,
        merged_method=est_merged.method,
        lift_max_error=lift_err,
        finer_le_coarser=ineq1,
        coarser_le_factor_times_finer=ineq2,
        passed=ineq1 and ineq2,
    )


def diagonal_restrict(A: PartialArray, I: Iterable[int]) -> PartialArray:
    """Zero out entries of an order-2d array where coordinates l and l+d differ, l in I."""
    d = doubled_order(A)
    I = sorted(set(I))
    if any(not 1 <= l <= d for l in I):
        raise AxisSetError(f"I = {I} not a subset of [{d}]")
    data = A.data.copy()
    for l in I:
        n = A.size(l)
        shape_l = [1] * 2 * d
        shape_l[l - 1] = n
        shape_ld = [1] * 2 * d
        shape_ld[l - 1 + d] = n
        ar = np.arange(n)
        data = data * (ar.reshape(shape_l) == ar.reshape(shape_ld))
    return PartialArray(A.axes, A.sizes, data, copy=False)


@dataclass
class DiagonalRestrictionReport:
    restricted_value: float
    full_value: float
    restricted_method: str
    full_method: str
    retried: bool
    passed: bool


def verify_diagonal_restriction(A: PartialArray, I: Iterable[int], P,
                                opts: NormOptions | None = None,
                                slack: float = 1e-6) -> DiagonalRestrictionReport:
    """Check that restricting to diagonal entries cannot increase a partition norm."""
    opts = opts or DEFAULT_OPTIONS
    AI = diagonal_restrict(A, I)
    lhs = tensor_norm(AI, P, opts)
    rhs = tensor_norm(A, P, opts)
    retried = False
    if lhs.value > rhs.value * (1.0 + slack) and rhs.method == "als" and lhs.factors is not None:
        # the restricted optimizer is a feasible point for the full array too
        retried = True
        rhs = _als_estimate(A, rhs.partition, replace(opts, restarts=2 * opts.restarts),
                            "als", start=lhs.factors)
    return DiagonalRestrictionReport(
        restricted_value=lhs.value,
        full_value=rhs.value,
        restricted_method=lhs.method,
        full_method=rhs.method,
        retried=retried,
        passed=lhs.value <= rhs.value * (1.0 + slack) + 1e-300,
    )
