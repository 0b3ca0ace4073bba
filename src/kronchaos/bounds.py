"""Closed-form bound quantities for the Kronecker chaos.

Builds the reduced arrays obtained by partial traces over paired axes, the
symmetrization that preserves the quadratic form, and the two moment
functionals: the main functional on the order-2d rearrangement of a square
matrix, and the norm-deviation functional on a Gram rearrangement.
Both tail bounds, for | ||AX||_2 - ||A||_F | and its order-1 Hanson-Wright
baseline, have the one form min(1, P exp(-c e(t))), where e(t) is the
largest regime exponent at t (:func:`tail_bound`).  The prefactor P is
e^2 (:data:`AX_PREFACTOR`) or 2 (:data:`HW_PREFACTOR`).  The theory only
guarantees that some dimension-dependent constant c > 0 works, so c is an
argument; the suites fit it and report it, never assert it.

A norm table estimates one kappa >= 3 partition per orbit of the pair swaps
l <-> l + d that leave its reduced array exactly unchanged
(:func:`swap_invariances`); the other rows of the orbit copy that estimate.
Every Gram array has the full swap, a symmetrized array every swap.  The
estimated rows run in ALS batches of whole norms, capped by restarts times
data entries (see :mod:`kronchaos.norms`).

A report's input passes one gate, :func:`checked_input`, before any sample or
norm table; the gate also gives the one Frobenius norm of it a report reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, AxisSetError, DegenerateInputError, ShapeError
from .norms import (
    NormEstimate,
    NormOptions,
    DEFAULT_OPTIONS,
    norm_objective,
    table_norms,
    tensor_norm,
)
from .partitions import Partition, partitions_into, subsets
from .tensor import (
    _LETTERS,
    Dims,
    PartialArray,
    doubled_order,
    rearrange_matrix,
)


# ---------------------------------------------------------------------------
# reduced arrays and symmetrization


def build_reduced_array(A: PartialArray, I: Iterable[int]) -> PartialArray:
    """Partial trace of an order-2d array over the paired axes in I.

    The result lives on the surviving axes (I^c) u (I^c + d); I = [d] yields
    the scalar :func:`identities.expected_quadratic`, I = empty returns the array unchanged.
    """
    d = doubled_order(A)
    I = sorted(set(I))
    if any(not 1 <= l <= d for l in I):
        raise AxisSetError(f"I = {I} is not a subset of [{d}]")
    letters = list(_LETTERS[: 2 * d])
    for l in I:
        letters[l - 1 + d] = letters[l - 1]
    keep = [l for l in range(1, 2 * d + 1) if l not in I and l - d not in I]
    out = "".join(letters[l - 1] for l in keep)
    data = np.einsum("".join(letters) + "->" + out, A.data)
    return PartialArray(keep, [A.size(l) for l in keep], data)


def _swap(a: int, d: int, S: Sequence[int]) -> int:
    """Axis label a after the pair swap l <-> l + d of every l in S."""
    return a + d if a in S else a - d if a - d in S else a


def _swap_axes_perm(axes: Sequence[int], d: int, S: Sequence[int]) -> list[int]:
    """The transpose of an array on ``axes`` that swaps its paired axes l and l + d, l in S."""
    return [axes.index(_swap(a, d, S)) for a in axes]


def symmetrize(A: PartialArray) -> PartialArray:
    """Average the order-2d array over all swaps of paired axes.

    Generalizes (A + A^T) / 2: the quadratic form X^T A X is preserved for
    every realization while the result satisfies the pairwise symmetry
    condition exactly (iterated two-term averages are exactly swap-invariant
    in floating point).
    """
    d = doubled_order(A)
    data = A.data
    for l in range(1, d + 1):
        data = 0.5 * (data + data.transpose(_swap_axes_perm(A.axes, d, [l])))
    return PartialArray(A.axes, A.sizes, data)


def swap_invariances(B: PartialArray, d: int) -> list[tuple[int, ...]]:
    """The pair-swap subsets S under which B equals itself, exactly.

    B lives on axes labelled within 1..2d, where l and l + d are a pair when
    B has both; a reduced array keeps the pairs outside I.  S ranges over the
    subsets of B's pairs, the empty one first and always included, and the
    swap of S exchanges axes l and l + d for every l in S.  Each test is
    ``np.array_equal``, with no tolerance, so the result is a group under
    symmetric difference.
    """
    pairs = [l for l in B.axes if l <= d and l + d in B.axes]
    return [S for S in subsets(pairs)
            if not S or np.array_equal(B.data, B.data.transpose(_swap_axes_perm(B.axes, d, S)))]


def check_symmetry(A: PartialArray) -> bool:
    """True iff the array equals every single-pair axis swap of itself, exactly."""
    d = doubled_order(A)
    invariant = swap_invariances(A, d)
    return all((l,) in invariant for l in range(1, d + 1))


# ---------------------------------------------------------------------------
# moment functionals


@dataclass
class NormTableRow:
    """One summand of a moment functional: a reduced array, a partition, its norm."""

    reduced_axes: tuple[int, ...]
    partition: Partition
    estimate: NormEstimate

    @property
    def kappa(self) -> int:
        return self.partition.kappa

    @property
    def value(self) -> float:
        return self.estimate.value


def table_warnings(rows: Sequence[NormTableRow]) -> list[str]:
    """The estimator warnings of a norm table, each tagged with its row."""
    return [f"I={row.reduced_axes} P={row.partition}: {w}"
            for row in rows for w in row.estimate.warnings]


def _swapped_estimate(est: NormEstimate, Q: Partition, d: int, S: tuple[int, ...]) -> NormEstimate:
    """The ALS estimate of ``est``'s partition carried to Q, its image under the
    swap of S, on an array that swap leaves unchanged: the same value, each
    block factor moved onto the swapped block, and no restart run for it."""
    moved = {}
    for block, f in zip(est.partition.blocks, est.factors):
        labels = [_swap(a, d, S) for a in block]
        moved[tuple(sorted(labels))] = f.transpose(np.argsort(labels)).copy()
    return replace(est, partition=Q, total_iterations=0,
                   factors=tuple(moved[b] for b in Q.blocks), warnings=list(est.warnings))


def checked_input(A: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, float]:
    """A report's input array as float64 and its Frobenius norm, the package's
    one ``np.linalg.norm``.  A non-finite entry, or finite entries whose norm
    overflows a float, is an ArgumentError naming the input ``name``, and so
    is one whose N ||A||_F^2 overflows, N its row length: a partial trace grows
    the norm by up to sqrt(N), and ``tensor.frobenius`` squares it unscaled."""
    A = np.asarray(A, dtype=np.float64)
    if not np.isfinite(A).all():
        raise ArgumentError(f"{name} has a non-finite entry")
    with np.errstate(over="ignore"):  # an overflow is the ArgumentError below
        fro = float(np.linalg.norm(A))
    if not math.isfinite(fro):
        raise ArgumentError(f"{name} is too large: its Frobenius norm overflows")
    N = A.shape[-1] if A.ndim else 1
    if not math.isfinite(N * fro * fro):
        raise ArgumentError(f"{name} is too large: {N} times its squared Frobenius "
                            "norm overflows")
    return A, fro


def _check_p_L(p: float, L: float) -> None:
    """The range of p and of the subgaussian-norm bound L where the functionals apply."""
    if p < 2:
        raise ArgumentError(f"p = {p} must be >= 2")
    if L < 1:
        raise ArgumentError(f"L = {L} must be >= 1")


def _check_t(t: float) -> None:
    """The range of the deviation t where the tail bounds apply."""
    if not math.isfinite(t):
        raise ArgumentError(f"t = {t} must be finite")
    if t < 0:
        raise ArgumentError(f"t = {t} must be >= 0")


def check_tail_args(t_grid: Sequence[float], name: str, c: float) -> None:
    """Each t of a tail grid, then the constant c of the bound, named ``name``:
    ``not c > 0`` also rejects nan."""
    for t in t_grid:
        _check_t(t)
    if not c > 0:
        raise ArgumentError(f"{name} = {c} must be > 0")


def _power(x: float, k: float, name: str) -> float:
    """x ** k; a float overflow is an ArgumentError that names the input ``name``."""
    try:
        return x ** k
    except OverflowError:
        raise ArgumentError(f"{name} is too large: a power of it in the bound overflows") from None


def _kappa_sums(rows: Sequence[NormTableRow], d: int) -> dict[int, float]:
    """Summed partition norms per block count kappa = 1..2d."""
    sums = {k: 0.0 for k in range(1, 2 * d + 1)}
    for row in rows:
        sums[row.kappa] += row.value
    return sums


def main_norm_table(A: PartialArray, opts: NormOptions | None = None) -> list[NormTableRow]:
    """Norms of every reduced array over every partition of its surviving axes.

    Rows run reduced array by reduced array, by increasing block count.  A
    pair swap l <-> l + d that leaves a reduced array exactly unchanged maps
    each partition to one of the same norm.  So the kappa >= 3 rows of each
    nonzero reduced array are quotiented by the swaps
    :func:`swap_invariances` finds for it: the full swap on every Gram array
    A^T A, every swap on a symmetrized array, none on a generic A.  Only the
    first row of each orbit is estimated; each other row gets its estimate
    through :func:`_swapped_estimate`.  Row order and count do not change.
    The estimated rows are one :func:`norms.table_norms` call, which computes
    the kappa <= 2 rows exactly and runs the ALS rows with the same ordered
    block shapes as one restart batch, so rows of different reduced arrays
    and partitions share a batch.
    """
    d = doubled_order(A)
    arrays = [(I, build_reduced_array(A, I)) for I in subsets(range(1, d + 1)) if len(I) < d]
    keys = [(j, P) for j, (_, B) in enumerate(arrays)
            for kappa in range(1, B.order + 1) for P in partitions_into(B.axes, kappa)]
    swaps = [swap_invariances(B, d)[1:] if np.any(B.data) else [] for _, B in arrays]
    # (array, partition) -> (its orbit's first row, the swap from that row onto it)
    orbit: dict[tuple[int, Partition], tuple[int, tuple[int, ...]]] = {}
    source: dict[int, tuple[int, tuple[int, ...]]] = {}
    for i, (j, P) in enumerate(keys):
        if (j, P) in orbit:
            source[i] = orbit[j, P]
        elif P.kappa >= 3:
            for S in swaps[j]:
                Q = Partition([[_swap(a, d, S) for a in b] for b in P.blocks], ground=P.ground)
                orbit.setdefault((j, Q), (i, S))
    run = [i for i in range(len(keys)) if i not in source]
    estimates = dict(zip(run, table_norms([arrays[keys[i][0]][1] for i in run],
                                          [keys[i][1] for i in run], opts or DEFAULT_OPTIONS),
                         strict=True))
    for i, (rep, S) in source.items():
        estimates[i] = _swapped_estimate(estimates[rep], keys[i][1], d, S)
    return [NormTableRow(arrays[j][0], P, estimates[i]) for i, (j, P) in enumerate(keys)]


def mp_main(A: PartialArray, p: float, L: float = 1.0, opts: NormOptions | None = None,
            table: list[NormTableRow] | None = None) -> float:
    """Main moment functional of the order-2d rearrangement of a square matrix.

    L^(2d) * sum over kappa of p^(kappa/2) times the summed partition norms of
    every proper reduced array; block counts beyond the surviving order have
    no partitions and contribute nothing.
    """
    _check_p_L(p, L)
    d = doubled_order(A)
    rows = table if table is not None else main_norm_table(A, opts)
    return _power(L, 2 * d, f"L = {L:g}") * sum(p ** (row.kappa / 2.0) * row.value for row in rows)


def gram_norm_table(A: np.ndarray, dims: Dims, opts: NormOptions | None = None) -> list[NormTableRow]:
    """Main norm table of the rearranged Gram matrix A^T A."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != dims.total:
        raise ShapeError(f"matrix shape {A.shape} does not match N = {dims.total}")
    gram = rearrange_matrix(A.T @ A, dims)
    return main_norm_table(gram, opts)


def mp_norm(A: np.ndarray, dims: Dims, p: float, L: float = 1.0,
            opts: NormOptions | None = None,
            table: list[NormTableRow] | None = None) -> float:
    """Moment functional for the norm deviation | ||AX||_2 - ||A||_F |.

    Per block count kappa, takes the smaller of p^(kappa/2) m_kappa / ||A||_F
    and p^(kappa/4) sqrt(m_kappa), where m_kappa sums the partition norms of
    the reduced Gram arrays; the total carries the L^(2d) factor.
    """
    _check_p_L(p, L)
    A, fro = checked_input(A)
    if fro == 0.0:
        raise DegenerateInputError("zero matrix")
    d = dims.order
    rows = table if table is not None else gram_norm_table(A, dims, opts)
    return _power(L, 2 * d, f"L = {L:g}") * sum(
        min(p ** (k / 2.0) * mk / fro, p ** (k / 4.0) * math.sqrt(mk))
        for k, mk in _kappa_sums(rows, d).items()
    )


# ---------------------------------------------------------------------------
# tail bounds

# The prefactor P of each family's tail bound min(1, P exp(-c e(t))).
AX_PREFACTOR = math.e**2
HW_PREFACTOR = 2.0


@dataclass
class TailBound:
    """Evaluated tail bound: the clipped minimum over the applicable regimes."""

    t: float
    value: float
    regime: str
    exponents: dict[str, float]


def _matrix_norms(A: np.ndarray) -> tuple[float, float]:
    A, fro = checked_input(A)
    if fro == 0.0:
        raise DegenerateInputError("zero matrix")
    spec = float(np.linalg.svd(A, compute_uv=False)[0])
    return fro, spec


def ax_exponents(A: np.ndarray, dims: Dims, t_grid: Sequence[float]) -> list[dict[str, float]]:
    """Each t's exponents of the norm-deviation tail regimes that apply at t,
    after the checks of every t, the dims and the matrix, from one SVD of A.

    Regimes: "small-t" for t <= n^(d/2) s, "large-t" for t >= n^(d/2) s, and
    "stable-rank" on [n^((d-1)/4) s, n^((d-1)/4) f], with s and f the spectral
    and Frobenius norms; the intervals overlap and every applicable bound holds.
    """
    for t in t_grid:
        _check_t(t)
    n, d = dims.sizes[0], dims.order
    if any(m != n for m in dims.sizes):
        raise ArgumentError(f"tail bound needs equal per-axis dims, got {dims.sizes}")
    A = np.asarray(A, dtype=np.float64)
    if A.shape[1] != dims.total:
        raise ShapeError(f"matrix has {A.shape[1]} columns, expected {dims.total}")
    fro, spec = _matrix_norms(A)
    out = []
    for t in t_grid:
        exps: dict[str, float] = {}
        if t <= n ** (d / 2.0) * spec:
            exps["small-t"] = t * t / (n ** (d - 1.0) * spec * spec)
        if t >= n ** (d / 2.0) * spec:
            exps["large-t"] = _power(t / spec, 2.0 / d, f"t = {t:g}")
        if n ** ((d - 1.0) / 4.0) * spec <= t <= n ** ((d - 1.0) / 4.0) * fro:
            exps["stable-rank"] = t * t / (n ** ((d - 1.0) / 2.0) * fro * fro)
        out.append(exps)
    return out


def hw_exponents(A: np.ndarray, t_grid: Sequence[float], K: float,
                 K_name: str) -> list[dict[str, float]]:
    """Each t's exponent min(t^2 / (K^4 ||A||_F^2), t / (K^2 ||A||_2->2)) of the
    order-1 tail bound, its one regime "hanson-wright", after the checks of every
    t, the matrix, and then K, named ``K_name``; from one SVD of A."""
    for t in t_grid:
        _check_t(t)
    fro, spec = _matrix_norms(A)
    K4 = _power(K, 4, K_name)
    return [{"hanson-wright": min(t * t / (K4 * fro * fro), t / (K**2 * spec))} for t in t_grid]


def tail_bound(t: float, exponents: dict[str, float], c: float, prefactor: float) -> TailBound:
    """The tail bound at t from the regime exponents at t: the smallest
    min(1, prefactor exp(-c e)) over them, a tie going to the first regime name."""
    regimes = {name: min(1.0, prefactor * math.exp(-c * e)) for name, e in exponents.items()}
    regime = min(regimes, key=lambda k: (regimes[k], k))
    return TailBound(t, regimes[regime], regime, exponents)


# bench/tracing.py wraps this one-t form of the tail curve.
def tail_bound_ax(A: np.ndarray, dims: Dims, t: float, C_d: float = 1.0) -> TailBound:
    """The three-regime tail bound (:func:`ax_exponents`) for | ||AX||_2 - ||A||_F | at t."""
    check_tail_args((), "C_d", C_d)  # the constant before t
    return tail_bound(t, ax_exponents(A, dims, [t])[0], C_d, AX_PREFACTOR)


# ---------------------------------------------------------------------------
# combined report


@dataclass
class BoundReport:
    """Every bound quantity for one matrix: norm tables, moment values, tail curve.

    The moment values are redundant given the tables; ``recompute_mp_main``
    and ``recompute_mp_norm`` re-sum them, so stored values can always be
    audited against the stored tables.
    """

    dims: Dims
    L: float
    matrix_fro: float
    main_rows: list[NormTableRow]
    gram_rows: list[NormTableRow]
    mp_main_values: dict[float, float]
    mp_norm_values: dict[float, float]
    mp_kappa: dict[int, float]
    tail_curve: list[TailBound]
    warnings: list[str]

    def recompute_mp_main(self, p: float) -> float:
        d = self.dims.order
        return self.L ** (2 * d) * sum(p ** (r.kappa / 2.0) * r.value for r in self.main_rows)

    def recompute_mp_norm(self, p: float) -> float:
        d = self.dims.order
        sums: dict[int, float] = {}
        for r in self.gram_rows:
            sums[r.kappa] = sums.get(r.kappa, 0.0) + r.value
        return self.L ** (2 * d) * sum(
            min(p ** (k / 2.0) * v / self.matrix_fro, p ** (k / 4.0) * math.sqrt(v))
            for k, v in sums.items()
        )

    def to_dict(self) -> dict:
        def row_dict(row: NormTableRow) -> dict:
            # comma-free rendering so CSV columns stay aligned
            return {
                "I": "{" + " ".join(str(x) for x in row.reduced_axes) + "}",
                "partition": "|".join(" ".join(str(x) for x in b) for b in row.partition.blocks),
                "kappa": row.kappa,
                "method": row.estimate.method,
                "value": row.value,
                "converged": row.estimate.converged,
            }

        return {
            "norm_rows": [row_dict(r) for r in self.main_rows],
            "gram_rows": [row_dict(r) for r in self.gram_rows],
            "mp_main": {f"{p:g}": v for p, v in self.mp_main_values.items()},
            "mp_norm": {f"{p:g}": v for p, v in self.mp_norm_values.items()},
            "mp_kappa": {str(k): v for k, v in self.mp_kappa.items()},
            "tail_curve": [{"t": tb.t, "bound": tb.value, "regime": tb.regime}
                           for tb in self.tail_curve],
            "warnings": sorted(set(self.warnings)),
        }


def compute_bound_report(A: np.ndarray, dims: Dims, p_grid: Sequence[float] = (2.0, 4.0, 8.0),
                         L: float = 1.0, C_tail: float = 1.0,
                         t_grid: Sequence[float] = (),
                         opts: NormOptions | None = None) -> BoundReport:
    """Compute every applicable bound quantity for a matrix with N columns.

    The quadratic-form functional needs a square matrix; the norm-deviation
    functional needs a nonzero one; the tail curve needs equal per-axis dims.
    Inapplicable parts are skipped with a warning rather than failing.
    """
    if np.ndim(A) != 2 or np.shape(A)[1] != dims.total:
        raise ShapeError(f"matrix shape {np.shape(A)} does not match N = {dims.total}")
    opts = opts or DEFAULT_OPTIONS
    for p in p_grid:
        _check_p_L(p, L)
    check_tail_args(t_grid, "C_tail", C_tail)  # also when the tail curve is skipped
    A, fro = checked_input(A)
    checked_input(A.T @ A, "Gram matrix A^T A")  # its entries are at most ||A||_F^2
    warnings: list[str] = []
    tail_curve: list[TailBound] = []
    if t_grid and len(set(dims.sizes)) == 1 and np.any(A):
        tail_curve = [tail_bound(t, exps, C_tail, AX_PREFACTOR)
                      for t, exps in zip(t_grid, ax_exponents(A, dims, t_grid))]
    elif t_grid:
        warnings.append("tail curve skipped: needs equal per-axis dims and a nonzero matrix")
    main_rows: list[NormTableRow] = []
    gram_rows: list[NormTableRow] = []
    mp_main_values: dict[float, float] = {}
    mp_norm_values: dict[float, float] = {}
    mp_kappa: dict[int, float] = {}

    if A.shape[0] == A.shape[1]:
        A2d = rearrange_matrix(A, dims)
        main_rows = main_norm_table(A2d, opts)
        warnings += table_warnings(main_rows)
        for p in p_grid:
            mp_main_values[p] = mp_main(A2d, p, L, table=main_rows)
    else:
        warnings.append("matrix is not square: skipping the quadratic-form functional")

    if np.any(A):
        gram_rows = gram_norm_table(A, dims, opts)
        warnings += table_warnings(gram_rows)
        for p in p_grid:
            mp_norm_values[p] = mp_norm(A, dims, p, L, table=gram_rows)
        if p_grid:
            mp_kappa = _kappa_sums(gram_rows, dims.order)
    else:
        warnings.append("zero matrix: norm-deviation functional undefined")

    return BoundReport(
        dims=dims,
        L=L,
        matrix_fro=fro,
        main_rows=main_rows,
        gram_rows=gram_rows,
        mp_main_values=mp_main_values,
        mp_norm_values=mp_norm_values,
        mp_kappa=mp_kappa,
        tail_curve=tail_curve,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# norm-inequality verifiers for reduced arrays


@dataclass
class ReductionLiftReport:
    """Constructive check that a partial trace costs at most sqrt(prod n_l) in norm."""

    reduced_value: float
    extended_value: float
    scale_factor: float
    lift_error: float
    passed: bool


def verify_reduction_lift(A: PartialArray, I: Iterable[int], P,
                          opts: NormOptions | None = None,
                          slack: float = 1e-6) -> ReductionLiftReport:
    """Check ||A^(I)||_P <= sqrt(prod_{l in I} n_l) * ||A||_{P + pairs(I)}.

    The reduced optimizer extends to a feasible point of the full array by
    normalized diagonal blocks on the pairs in I, with objective exactly
    1 / sqrt(prod n_l) times the reduced objective; the extended estimate is
    floored at that constructed value, so the inequality check is sound for
    certified lower bounds on both sides.
    """
    opts = opts or DEFAULT_OPTIONS
    d = doubled_order(A)
    I = tuple(sorted(set(I)))
    reduced = build_reduced_array(A, I)
    est_red = tensor_norm(reduced, P, opts)
    P_red = est_red.partition

    pair_blocks = [(l, l + d) for l in I]
    P_ext = Partition(list(P_red.blocks) + pair_blocks, ground=range(1, 2 * d + 1))
    est_ext = tensor_norm(A, P_ext, opts)

    scale = 1.0
    for l in I:
        scale *= A.size(l)
    scale = math.sqrt(scale)

    lift_error = 0.0
    ext_value = est_ext.value
    if est_red.factors is not None:
        by_block = dict(zip(P_red.blocks, est_red.factors))
        for l in I:
            n = A.size(l)
            by_block[(l, l + d)] = np.eye(n) / math.sqrt(n)
        lifted = [by_block[b] for b in P_ext.blocks]
        val = norm_objective(A, P_ext, lifted)
        lift_error = abs(val * scale - est_red.value)
        ext_value = max(ext_value, val)

    passed = est_red.value <= scale * ext_value * (1.0 + slack) + 1e-300
    return ReductionLiftReport(est_red.value, ext_value, scale, lift_error, passed)


@dataclass
class GramNormBoundReport:
    """Check of the reduced-Gram norm bounds against n^(|I|/2) ||B||_F and
    n^(d - kappa/2) ||B||_2->2."""

    reduced_value: float
    frobenius_bound: float
    spectral_bound: float
    within_frobenius: bool
    within_spectral: bool
    passed: bool


def check_gram_norm_bounds(A: np.ndarray, dims: Dims, I: Iterable[int], P,
                           opts: NormOptions | None = None,
                           slack: float = 1e-6) -> GramNormBoundReport:
    """Bound every partition norm of a reduced Gram array by matrix norms of B = A^T A.

    The left side is a certified lower bound, which can only make the check
    stricter; the right sides are exact matrix norms.
    """
    opts = opts or DEFAULT_OPTIONS
    n = dims.sizes[0]
    if any(m != n for m in dims.sizes):
        raise ArgumentError(f"needs equal per-axis dims, got {dims.sizes}")
    d = dims.order
    I = tuple(sorted(set(I)))
    A = np.asarray(A, dtype=np.float64)
    B = A.T @ A
    fro, spec = _matrix_norms(B)
    reduced = build_reduced_array(rearrange_matrix(B, dims), I)
    est = tensor_norm(reduced, P, opts)
    kappa = est.partition.kappa
    b_fro = n ** (len(I) / 2.0) * fro
    b_spec = n ** (d - kappa / 2.0) * spec
    ok_f = est.value <= b_fro * (1.0 + slack)
    ok_s = est.value <= b_spec * (1.0 + slack)
    return GramNormBoundReport(est.value, b_fro, b_spec, ok_f, ok_s, ok_f and ok_s)
