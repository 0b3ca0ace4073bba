"""Partition norms of dense arrays.

For a partition (I_1, ..., I_kappa) of the axes, the norm is the supremum of
the full contraction of the array against one unit-Frobenius block array per
partition block.  kappa = 1 is the Frobenius norm, kappa = 2 the spectral
norm of a matricization; both are computed exactly.  For kappa >= 3 the
supremum is NP-hard in general and is estimated by alternating maximization
(higher-order power method) over seeded random restarts; such values are
certified lower bounds, never exact.

:func:`table_norms` is the one evaluator: it checks every (array, partition)
pair, then picks the method by kappa; :func:`tensor_norm` is its one-pair
case.  ALS restarts run as one batch on a leading axis, and a batch holds the
restarts of several norms whose partitions have the same ordered block
shapes, every norm from the same seeded starts: as many whole norms as keep
restarts times data entries within ``_ALS_DOUBLES``.  Each partition block
is flattened to one axis, and each restart's block update is one matrix
product of a fixed shape against its own norm's data, so a restart's result
is bit-identical to a one-start call, and a norm's to a one-norm call.

:func:`table_norms` estimates every pair it is given.  Pairs whose norms are
equal by symmetry are the caller's to drop: ``bounds.main_norm_table`` sends
one partition per exact pair-swap orbit and copies its estimate to the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, AxisSetError
from .partitions import Partition
from .tensor import _LETTERS, ArrayLike, PartialArray, as_partial, doubled_order, frobenius


@dataclass(frozen=True)
class NormOptions:
    """Knobs for the ALS estimator of the kappa >= 3 norms.

    ``restarts``, ``max_iter``, ``tol`` and ``seed`` change the estimated
    values, so every report config records them; the exact kappa <= 2 norms
    ignore them.  Restart idx of every norm starts from the draw of
    ``default_rng((seed, 0x6E6F726D, idx))``.  Norms whose partitions have the
    same ordered block shapes therefore share their starts, and
    :func:`table_norms` runs them in one thread, in batches of whole norms
    whose restarts times data entries stay within ``_ALS_DOUBLES`` (a module
    constant, not an option); no batch changes a value.  ``threads`` changes
    nothing, and no CLI option or report config holds it.  It stays only
    because the benchmark's job configs pass it, and it goes with the next
    change to the benchmark.
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
        # with no iteration a restart keeps its unscored start and reports 0
        if self.max_iter < 1:
            raise ArgumentError(f"max_iter must be >= 1, got {self.max_iter}")
        # a nan or negative tol never converges, so every restart runs max_iter
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ArgumentError(f"tol must be a finite number >= 0, got {self.tol}")
        # the seed keys numpy generators, which take only non-negative integers
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")


DEFAULT_OPTIONS = NormOptions()


_RESTART_KEY = 0x6E6F726D  # restart idx draws from default_rng((seed, _RESTART_KEY, idx))
_ALS_DOUBLES = 1 << 19  # restarts x data entries in one _als_runs call of a norm table


@dataclass
class RestartResult:
    """A norm's best restart, and the iterations that all its restarts ran."""

    value: float
    factors: tuple[np.ndarray, ...]
    converged: bool
    iterations: int
    total_iterations: int


@dataclass
class NormEstimate:
    """A partition-norm value plus provenance of how it was obtained."""

    value: float
    method: str  # frobenius-exact | spectral-exact | als
    partition: Partition
    restarts_used: int = 0
    certified_lower_bound: bool = False
    converged: bool = True
    iterations: int = 0  # of the best restart
    total_iterations: int = 0  # summed over every restart
    factors: tuple[np.ndarray, ...] | None = None
    warnings: list[str] = field(default_factory=list)


def _coerce_partition(pa: PartialArray, P) -> Partition:
    if not isinstance(P, Partition):
        P = Partition(P)
    if set(P.ground) != set(pa.axes):
        raise AxisSetError(f"partition ground {P.ground} does not match array axes {pa.axes}")
    if P.kappa == 0:
        # a scalar's only partition has no block, and no norm
        raise ArgumentError("a partition norm needs at least one block")
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


def _restart_rng(seed: int, idx: int, shapes=None) -> np.random.Generator:
    """Restart ``idx``'s generator, past its start draw when ``shapes`` is given."""
    rng = np.random.default_rng((seed, _RESTART_KEY, idx))
    if shapes is not None:
        _random_factors(shapes, rng)
    return rng


def _block_mats(data: np.ndarray, positions: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Block r's C-contiguous matrix M_r: the data transposed so that each
    block's axes are adjacent, in block order, with the other blocks flattened
    on the rows and block r flattened on the columns."""
    sizes = [math.prod(data.shape[p] for p in pos) for pos in positions]
    flat = np.ascontiguousarray(data.transpose([p for pos in positions for p in pos]))
    flat = flat.reshape(sizes)  # block r's axes are now axis r
    return [np.ascontiguousarray(np.moveaxis(flat, r, -1)).reshape(-1, sizes[r])
            for r in range(len(positions))]


def _als_runs(mats, shapes, inits, owner, restart, stall_rng, max_iter, tol) -> list[RestartResult]:
    """Alternating maximization from every start at once; the best restart of each norm.

    A batch holds the restarts of Y norms whose partitions have the same
    ordered block shapes.  ``mats[r]`` stacks the norms' block-r matrices M_r
    (see :func:`_block_mats`) as (Y, m, n_r), ``inits[r]`` holds the Z
    flattened block-r starts as (Z, n_r), ``owner`` the norm of each start,
    in non-decreasing order, and ``restart`` its restart index.  Block r's
    update is the row-wise Khatri-Rao product of the other flattened factors
    times M_r: for each norm, one (1, m) @ (m, n_r) product per live start,
    whatever else is in the batch, so a restart's result is bit-identical to
    a one-start call.  A restart leaves the batch once it converges, and each
    norm keeps only its best restart so far: the highest value, then the
    lowest restart index.  A block whose update vanishes is re-randomized
    from the generator ``stall_rng(restart[z])`` of start z, built at its
    first stall.
    """
    kappa = len(shapes)
    factors = list(inits)
    live = np.arange(len(owner))  # start index of each batch row
    value = np.zeros(len(owner))
    prev = np.full(len(owner), -np.inf)
    rngs: dict[int, np.random.Generator] = {}
    # each norm's ((value, -restart), blocks, converged, iterations) so far
    best: list[tuple | None] = [None] * len(mats[0])
    total = [0] * len(best)

    def leave(rows, converged: bool, iterations: int):
        for i in rows:
            z = live[i]
            key, y = (float(value[i]), -int(restart[z])), owner[z]
            total[y] += iterations
            if best[y] is None or key > best[y][0]:
                blocks = tuple(f[i].reshape(shape).copy() for f, shape in zip(factors, shapes))
                best[y] = (key, blocks, converged, iterations)

    def spans():
        """(norm, first row, end row) of each norm with live rows: starts stay in owner order."""
        ends = np.searchsorted(owner[live], np.arange(len(best) + 1))
        return [(y, a, b) for y, (a, b) in enumerate(zip(ends[:-1], ends[1:])) if b > a]

    runs = spans()
    iterations = 0
    while iterations < max_iter and len(live):
        iterations += 1
        for r in range(kappa):
            others = [factors[q] for q in range(kappa) if q != r] or [np.ones((len(live), 1))]
            K = others[0]
            for f in others[1:]:
                K = (K[:, :, None] * f[:, None, :]).reshape(len(live), -1)
            # stacks of one-row products: the rows of one (Z, m) @ (m, n_r) gemm
            # can depend on the other rows, which would tie a restart to the batch
            v = np.empty((len(live), mats[r].shape[2]))
            for y, a, b in runs:
                np.matmul(K[a:b, None, :], mats[r][y], out=v[a:b, None, :])
            nv = np.sqrt((v * v).sum(axis=1))
            if nv.all():
                v /= nv[:, None]
            else:
                stalled = nv == 0.0
                v /= np.where(stalled, 1.0, nv)[:, None]
                for i in np.flatnonzero(stalled):
                    z = int(live[i])
                    if z not in rngs:
                        rngs[z] = stall_rng(int(restart[z]))
                    v[i] = _random_factors([shapes[r]], rngs[z])[0].ravel()
                nv = np.where(stalled, value, nv)
            factors[r] = v
            value = nv
        done = value - prev <= tol * np.maximum(np.abs(value), 1e-300)
        if done.any():
            leave(np.flatnonzero(done), True, iterations)
            live, value = live[~done], value[~done]
            factors = [f[~done] for f in factors]
            runs = spans()
        prev = value
    leave(range(len(live)), False, iterations)
    return [RestartResult(key[0], blocks, converged, iterations, t)
            for (key, blocks, converged, iterations), t in zip(best, total)]


def _als_batches(pas: Sequence[PartialArray], Ps: Sequence[Partition], opts: NormOptions,
                 start: Sequence[np.ndarray] | None = None) -> list[NormEstimate]:
    """ALS estimates of norms whose partitions have the same ordered block shapes.

    Each estimate is the certified lower bound set by the best of the same
    ``opts.restarts`` seeded starts, drawn once here, plus one run from
    ``start`` under the next restart index when given.  The norms run in
    batches of whole norms (at least one), as many as keep the batch's
    restarts times one norm's data entries within ``_ALS_DOUBLES``.  That
    product bounds the Khatri-Rao rows of a block update; at the default 32
    restarts it admits 256 norms of 64 entries, or 12 of 1296.
    """
    positions = [_block_positions(pa, P) for pa, P in zip(pas, Ps)]
    shapes = [tuple(pas[0].sizes[p] for p in pos) for pos in positions[0]]
    starts = [_random_factors(shapes, _restart_rng(opts.seed, idx)) for idx in range(opts.restarts)]
    if start is not None:
        starts.append(list(start))
    R = len(starts)
    inits = [np.stack([np.asarray(s[r], dtype=np.float64).ravel() for s in starts])
             for r in range(len(shapes))]

    def stall_rng(idx: int) -> np.random.Generator:
        return _restart_rng(opts.seed, idx, shapes if idx < opts.restarts else None)

    per_batch = max(1, _ALS_DOUBLES // (R * pas[0].data.size))
    out = []
    for b0 in range(0, len(pas), per_batch):
        rows = range(b0, min(b0 + per_batch, len(pas)))
        block_mats = [_block_mats(pas[y].data, positions[y]) for y in rows]
        mats = [np.stack([m[r] for m in block_mats]) for r in range(len(shapes))]
        best = _als_runs(mats, shapes, [np.tile(f, (len(rows), 1)) for f in inits],
                         np.repeat(np.arange(len(rows)), R), np.tile(np.arange(R), len(rows)),
                         stall_rng, opts.max_iter, opts.tol)
        for y, b in zip(rows, best):
            est = NormEstimate(b.value, "als", Ps[y], restarts_used=R, certified_lower_bound=True,
                               converged=b.converged, iterations=b.iterations,
                               total_iterations=b.total_iterations, factors=b.factors)
            if not b.converged:
                est.warnings.append(f"als did not converge within {opts.max_iter} iterations")
            out.append(est)
    return out


def _check_finite(pa: PartialArray) -> None:
    if not np.isfinite(pa.data).all():
        # the SVD of the kappa = 2 branch never returns on an inf entry
        raise ArgumentError("array has a non-finite entry")


def table_norms(arrays: Sequence[ArrayLike], partitions: Sequence, opts: NormOptions | None = None
                ) -> list[NormEstimate]:
    """Partition norms, one per (array, partition) pair, exact where possible.

    Every pair is checked before any norm is computed.  A zero array has norm
    0 at every kappa, with no factors and no certificate.  kappa = 1 is the
    Frobenius norm, kappa = 2 the largest singular value of the
    matricization.  The kappa >= 3 pairs whose partitions have the same
    ordered block shapes run their restarts together, as batches of
    :func:`_als_runs` of whole norms whose restarts times data entries stay
    within ``_ALS_DOUBLES``; reordering the blocks would reorder the updates,
    so only the ordered shapes are grouped.  Each ALS estimate equals the
    one-norm ``_als_batches([B], [P], opts)[0]`` bit for bit.  Every pair is
    estimated: a norm table drops the rows that an exact swap symmetry of
    its array makes equal before it calls here (``bounds.main_norm_table``).
    """
    opts = opts or DEFAULT_OPTIONS
    pas = [as_partial(B) for B in arrays]
    Ps = [_coerce_partition(pa, P) for pa, P in zip(pas, partitions, strict=True)]
    for pa in pas:
        _check_finite(pa)
    out: list[NormEstimate | None] = [None] * len(pas)
    groups: dict[tuple, list[int]] = {}
    for i, (pa, P) in enumerate(zip(pas, Ps)):
        if not np.any(pa.data):
            method = "frobenius-exact" if P.kappa == 1 else "spectral-exact" if P.kappa == 2 else "als"
            out[i] = NormEstimate(0.0, method, P)
        elif P.kappa == 1:
            value = frobenius(pa)
            out[i] = NormEstimate(value, "frobenius-exact", P, factors=(pa.data / value,))
        elif P.kappa == 2:
            u, s, vt = np.linalg.svd(matricize(pa, *P.blocks))
            row_shape, col_shape = [tuple(pa.size(a) for a in block) for block in P.blocks]
            out[i] = NormEstimate(float(s[0]), "spectral-exact", P,
                                  factors=(u[:, 0].reshape(row_shape), vt[0].reshape(col_shape)))
        else:
            groups.setdefault(tuple(tuple(pa.size(a) for a in b) for b in P.blocks), []).append(i)
    for rows in groups.values():
        for i, est in zip(rows, _als_batches([pas[i] for i in rows], [Ps[i] for i in rows], opts)):
            out[i] = est
    return out


def tensor_norm(B: ArrayLike, P, opts: NormOptions | None = None) -> NormEstimate:
    """Partition norm of B: the one-pair case of :func:`table_norms`."""
    return table_norms([B], [P], opts)[0]


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
        [rhs] = _als_batches([A], [rhs.partition], replace(opts, restarts=2 * opts.restarts),
                             start=lhs.factors)
    return DiagonalRestrictionReport(
        restricted_value=lhs.value,
        full_value=rhs.value,
        restricted_method=lhs.method,
        full_method=rhs.method,
        retried=retried,
        passed=lhs.value <= rhs.value * (1.0 + slack) + 1e-300,
    )
