"""Seeded sampling of subgaussian Kronecker factors and empirical estimators.

Sampling is counter based: every factor entry of sample s sits at a fixed
position s * stride + offset of a Philox stream keyed by (seed, stream), so
any sample can be regenerated without generating its predecessors and batch
generation is vectorized.  Each entry consumes exactly one uniform double,
mapped through the inverse normal CDF for Gaussian entries; independent
copies use a distinct stream constant.

Only the Gaussian family needs scipy: ``scipy.special.ndtri`` for its draw
and ``gammaln`` for its L_p norm.  ``_scipy_special`` imports the module on
the first such call, not when the package is imported: after numpy, the
import takes about 0.29 s and 25 MB of peak memory on a 2-core x86 host,
more than a small ``bounds`` report takes to compute.  Runs that draw no
Gaussian entry never load it.

``sampled_statistics`` evaluates a statistic over S samples in chunks of
_STAT_CHUNK samples, so that only one chunk of factors, Kronecker vectors and
products is alive at a time, and returns them as a ``SampleBatch`` that
carries the (seed, stream) of its first sampler, the stream its bootstrap
resamples on.  The chunks give the values of one single-threaded product
over the whole batch: the sampler is counter based, so a chunk's draws are
the same rows of the whole batch, and every statistic is row-wise.  BLAS
rounds a row alike in both only on the same kernel path: OpenBLAS sends a
product with a few rows through other kernels than a tall one, and rounds
the rows after a matrix-vector product's last whole row block apart.  So S
is split into the fewest chunks of at most _STAT_CHUNK samples, all of one
size n, a multiple of _STAT_ALIGN, and every chunk starts at a multiple of
_STAT_ALIGN.  The last one ends at S, overlaps its predecessor by fewer than
_STAT_ALIGN samples per chunk and has more than n - _STAT_ALIGN (one chunk
when S <= _STAT_CHUNK).  A threaded whole-batch product can round the rows
at its thread boundaries apart; the chunks do not.

The bootstrap of ``estimate_lp`` draws RESAMPLES resamples of a sample stream
from one integer stream keyed by (seed, STREAM_BOOTSTRAP + stream), one index
row of S draws per resample.  Every statistic and every p evaluated on that
sample stream share its indices, which are drawn once.

Sums over samples run in a fixed order.  The bootstrap contracts exact
resample counts with the powers of each statistic through BLAS products of
one fixed block shape, added block by block in sample order, so a value does
not depend on how many statistics share the stream.  Identical seeds give
bit-identical results; tests/test_golden_reports.py checks that one BLAS
thread gives the same report bytes as the default thread count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import ArgumentError, AxisSetError, ShapeError, SizeError
from .identities import term_sets
from .tensor import _LETTERS, ArrayLike, Dims, as_partial, doubled_order, frobenius

# Most entries of Kronecker vectors that one kronecker_batch call builds: rows x N.
KRON_MATERIALIZE_CAP = 2**26

_MASK64 = (1 << 64) - 1

# Stream offset of the bootstrap resampling of a batch drawn on stream s: s + STREAM_BOOTSTRAP.
STREAM_BOOTSTRAP = 0x30

# Bootstrap resamples per L_p band, in every suite.
RESAMPLES = 200

# Grid on which the subgaussian norms sup_p ||Y||_p / sqrt(p) were evaluated.
_PSI2_P_GRID = np.linspace(1.0, 200.0, 20000)


# Analytic values for gaussian / rademacher (the sup is attained at p = 1);
# grid-computed upper bounds, rounded up to 3 digits, for the others.
PSI2_GAUSSIAN = math.sqrt(2.0 / math.pi)
PSI2_RADEMACHER = 1.0
PSI2_UNIFORM_SYM = 0.867


class Family(NamedTuple):
    """One entry family: ``lp_norm(p, q)`` is the analytic ||Y||_p, ``draw(u, q)``
    maps uniforms to entries and ``psi2`` is the stored subgaussian-norm bound
    (None: computed from q)."""

    lp_norm: Callable[[np.ndarray, float], np.ndarray]
    draw: Callable[[np.ndarray, float], np.ndarray]
    psi2: float | None


def _two_point(u: np.ndarray, q: float) -> np.ndarray:
    v = math.sqrt(1.0 / (2.0 * q))
    return np.where(u < q, v, np.where(u >= 1.0 - q, -v, 0.0))


def _scipy_special():
    """scipy.special, imported on the first Gaussian draw or moment (see the
    module docstring)."""
    import scipy.special

    return scipy.special


# Uniforms lie on the lattice {0, ..., 2^53 - 1} / 2^53; the half-ulp shift
# keeps the gaussian map finite and exactly symmetric.
FAMILIES = {
    "gaussian": Family(
        lambda p, q: np.sqrt(2.0) * np.exp(
            (_scipy_special().gammaln((p + 1.0) / 2.0) - _scipy_special().gammaln(0.5)) / p),
        lambda u, q: _scipy_special().ndtri(u + 2.0**-54), PSI2_GAUSSIAN),
    "rademacher": Family(lambda p, q: np.ones_like(p),
                         lambda u, q: np.where(u < 0.5, -1.0, 1.0), PSI2_RADEMACHER),
    "uniform_sym": Family(lambda p, q: np.sqrt(3.0) * (p + 1.0) ** (-1.0 / p),
                          lambda u, q: (2.0 * (u + 2.0**-54) - 1.0) * math.sqrt(3.0),
                          PSI2_UNIFORM_SYM),
    "two_point": Family(lambda p, q: (2.0 * q) ** (1.0 / p - 0.5), _two_point, None),
}


def _family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ArgumentError(f"unknown family {name!r}") from None


def _check_q(family: str, q: float) -> None:
    if family == "two_point" and not 0.0 < q <= 0.5:
        raise ArgumentError(f"two_point needs 0 < q <= 1/2, got {q}")


def psi2_numeric(family: str, q: float = 0.25) -> float:
    """sup_p ||Y||_p / sqrt(p) evaluated on a dense p grid."""
    curve = _family(family).lp_norm(_PSI2_P_GRID, q) / np.sqrt(_PSI2_P_GRID)
    return float(curve.max())


@dataclass(frozen=True)
class DistributionSpec:
    """Entry distribution: family plus its subgaussian-norm bound.

    Every family has mean 0 and variance 1.  two_point(q) takes the values
    +-sqrt(1/(2q)) with probability q each and 0 otherwise, q <= 1/2.
    ``bound_L`` is the value used inside the moment functionals, which
    require a bound that is at least 1.  A bad family, bound or q is an ArgumentError.
    """

    family: str
    psi2_bound: float
    q: float = 0.25

    def __post_init__(self):
        _family(self.family)
        if not (math.isfinite(self.psi2_bound) and self.psi2_bound > 0):
            raise ArgumentError(f"psi2 bound {self.psi2_bound} must be finite and > 0")
        _check_q(self.family, self.q)

    @property
    def bound_L(self) -> float:
        return max(1.0, self.psi2_bound)

    @property
    def label(self) -> str:
        return f"two_point({self.q})" if self.family == "two_point" else self.family


def distribution(family: str, q: float | None = None) -> DistributionSpec:
    """DistributionSpec with the stored subgaussian-norm constant for the family.
    Only two_point reads q (0.25 if not given); a q for another family is an ArgumentError."""
    psi2 = _family(family).psi2
    if psi2 is not None:
        if q is not None:
            raise ArgumentError(f"q changes nothing unless the family is two_point, got {family}")
        return DistributionSpec(family, psi2)
    q = 0.25 if q is None else q
    _check_q(family, q)
    return DistributionSpec(family, math.ceil(psi2_numeric(family, q) * 1000) / 1000, q)


def _key_word(value: int, name: str) -> int:
    """The value as one 64-bit Philox key word.  A value outside [0, 2^64)
    would key the stream of the value it equals modulo 2^64, so it is an
    ArgumentError."""
    value = int(value)
    if not 0 <= value <= _MASK64:
        raise ArgumentError(f"{name} must lie in [0, 2^64), got {value}")
    return value


def check_seed(seed: int) -> int:
    """The sampling seed as one 64-bit Philox key word (:func:`_key_word`)."""
    return _key_word(seed, "sampling seed")


class FactorSampler:
    """Counter-based sampler of the d independent factor vectors.

    Sample s occupies Philox counter block s * stride_blocks of the stream
    keyed by (seed, stream); axis l occupies a fixed slot range inside the
    block, so ``batch(s, 1)`` reproduces row s of any batch bit-identically.
    The seed and the stream must lie in [0, 2^64) (:func:`_key_word`).
    """

    def __init__(self, dims: Dims, dist: DistributionSpec, seed: int, stream: int):
        self.dims = dims
        self.dist = dist
        self.seed = check_seed(seed)
        self.stream = _key_word(stream, "sampling stream")
        self.offsets = list(itertools.accumulate(dims.sizes, initial=0))[:-1]
        self.stride_blocks = (sum(dims.sizes) + 3) // 4  # Philox advances in 4-double blocks

    def _key(self):
        return np.array([self.seed, self.stream], dtype=np.uint64)

    def batch(self, start: int, count: int) -> list[np.ndarray]:
        """Factor matrices of shape (count, n_l) for samples start..start+count-1."""
        bg = Philox(key=self._key())
        if start:
            bg.advance(start * self.stride_blocks)
        u = Generator(bg).random(count * self.stride_blocks * 4)
        u = u.reshape(count, self.stride_blocks * 4)
        values = _family(self.dist.family).draw(u, self.dist.q)
        return [
            np.ascontiguousarray(values[:, off : off + n])
            for off, n in zip(self.offsets, self.dims.sizes)
        ]


def kronecker_batch(factor_mats: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product: (S, n_1), ..., (S, n_d) -> (S, N)."""
    S = factor_mats[0].shape[0]
    total = math.prod(m.shape[1] for m in factor_mats)
    if S * total > KRON_MATERIALIZE_CAP:
        raise SizeError(f"{S} Kronecker vectors of length {total} exceed "
                        f"{KRON_MATERIALIZE_CAP} entries")
    x = factor_mats[0]
    for m in factor_mats[1:]:
        x = (x[:, :, None] * m[:, None, :]).reshape(S, -1)
    return x


def _trace_reduced(A: np.ndarray) -> float:
    # same pairwise reduction as the quadratic form, so that diagonal matrices
    # with +-1 factors give an exactly zero centered statistic
    return float(np.add.reduce(np.ascontiguousarray(np.diagonal(A))))


def chaos_batch(A: np.ndarray, factor_mats: Sequence[np.ndarray]) -> np.ndarray:
    """Vector of chaos statistics across a sample batch."""
    A = np.asarray(A, dtype=np.float64)
    X = kronecker_batch(factor_mats)
    if A.shape != (X.shape[1], X.shape[1]):
        raise ShapeError(f"matrix shape {A.shape} does not match N = {X.shape[1]}")
    return np.add.reduce(X * (X @ A.T), axis=1) - _trace_reduced(A)


def norm_batch(A: np.ndarray, factor_mats: Sequence[np.ndarray]) -> np.ndarray:
    """Vector of norm-deviation statistics across a sample batch."""
    A = np.asarray(A, dtype=np.float64)
    X = kronecker_batch(factor_mats)
    if A.shape[1] != X.shape[1]:
        raise ShapeError(f"matrix has {A.shape[1]} columns, expected {X.shape[1]}")
    Y = X @ A.T
    return np.sqrt(np.add.reduce(Y * Y, axis=1)) - frobenius(A)


def semi_decoupled_batch(A: ArrayLike, I, J,
                         factor_mats: Sequence[np.ndarray],
                         factor_bar_mats: Sequence[np.ndarray]) -> np.ndarray:
    """Semi-decoupled term values across a sample batch, as bilinear forms.

    The term of :func:`semi_decoupled_spec` for sample s is u_s^T M v_s.  M is
    reduced from A once: its diagonal is summed over the pairs in I \\ J and
    kept over the pairs in J, its rows run over (J, C) and its columns over C
    on the column axes, where C = [d] \\ I.  Then u_s = kron(x_J^2 - 1, x_C)
    and v_s = kron(xbar_C), each axis group in increasing order.
    """
    d = len(factor_mats)
    I, J = term_sets(d, I, J)
    pa = as_partial(A)
    if doubled_order(pa) != d:
        raise AxisSetError(f"A has half order {doubled_order(pa)}, but {d} factor batches "
                           "were given")
    Js, C = sorted(J), [l for l in range(1, d + 1) if l not in I]
    if not Js and not C:
        raise AxisSetError("the term with I \\ J = [d] has no sample axis: every pair is "
                           "tied and summed")
    rows, cols = _LETTERS[:d], _LETTERS[d : 2 * d]
    # a pair in I shares its row letter: summed unless it is in J, where it stays a row
    subs = rows + "".join(rows[l - 1] if l in I else cols[l - 1] for l in range(1, d + 1))
    out = "".join(rows[l - 1] for l in Js + C) + "".join(cols[l - 1] for l in C)
    M = np.einsum(f"{subs}->{out}", pa.data).reshape(-1, math.prod(pa.sizes[l - 1] for l in C))
    # u_s M is formed before the v_s, so that the u_s are freed first
    UM = kronecker_batch([factor_mats[l - 1] ** 2 - 1.0 for l in Js]
                         + [factor_mats[l - 1] for l in C]) @ M
    if not C:
        return UM[:, 0]
    return np.einsum("si,si->s", UM, kronecker_batch([factor_bar_mats[l - 1] for l in C]))


@dataclass
class SampleBatch:
    """Statistics per sample, with the stream coordinates that regenerate them:
    ``values`` is (count,) for one statistic or (K, count) for K statistics
    drawn on the same stream."""

    seed: int
    stream: int
    values: np.ndarray

    @property
    def count(self) -> int:
        return np.shape(self.values)[-1]


# Samples per sampler call of sampled_statistics, and the multiple of every
# BLAS kernel's row block that each chunk starts at (see the module docstring).
_STAT_CHUNK = 8192
_STAT_ALIGN = 64


def sampled_statistics(samplers: Sequence[FactorSampler], S: int,
                       statistic: Callable[..., np.ndarray]) -> SampleBatch:
    """Statistics of samples 0..S-1, drawn at most _STAT_CHUNK samples at a time.

    ``statistic(mats_1, ..., mats_m)`` gets the factor matrices of the same
    n samples from each of the m samplers and returns their (n,) values, or
    (K, n) for K statistics.  The batch holds the (S,) or (K, S) values under
    the seed and stream of the first sampler.  Only one chunk of factors and
    of the statistic's intermediates is alive at a time.
    """
    if S < 1:
        raise ArgumentError(f"need at least 1 sample, got {S}")
    # the fewest chunks, all of one size n that is a multiple of _STAT_ALIGN,
    # or one chunk of S samples
    chunks = -(-S // _STAT_CHUNK)
    n = min(S, -(-S // (chunks * _STAT_ALIGN)) * _STAT_ALIGN)
    last = -(-(S - n) // _STAT_ALIGN) * _STAT_ALIGN  # the last chunk ends at S
    out = None
    for s0 in range(0, S, n):
        s0 = min(s0, last)
        s1 = min(s0 + n, S)
        values = statistic(*(sampler.batch(s0, s1 - s0) for sampler in samplers))
        if out is None:
            out = np.empty(values.shape[:-1] + (S,))
        out[..., s0:s1] = values
    return SampleBatch(samplers[0].seed, samplers[0].stream, out)


@dataclass
class EmpiricalMoment:
    """Empirical L_p norm with a bootstrap 95% band."""

    p: float
    estimate: float
    ci_low: float
    ci_high: float


# Block shape of the bootstrap contraction: counts of _COUNT_BLOCK resamples are
# contracted with the powers of _SAMPLE_BLOCK samples at a time.
_COUNT_BLOCK = 64
_SAMPLE_BLOCK = 2048


def _check_finite(values: np.ndarray) -> None:
    # a nan compares false with everything, so it would pass for a zero
    # statistic in estimate_lp and for no exceedance in estimate_tail
    if not np.isfinite(values).all():
        raise ArgumentError("sampled statistics have a non-finite value")


def estimate_lp(batch: SampleBatch, p_grid: Sequence[float],
                resamples: int = RESAMPLES) -> list[EmpiricalMoment] | list[list[EmpiricalMoment]]:
    """Empirical L_p norms ((1/S) sum |v|^p)^(1/p) with bootstrap bands.

    Returns one EmpiricalMoment per p for (S,) values, and one such row per
    statistic for (K, S) values.  Each statistic is rescaled by its maximum
    before taking powers, so large p cannot overflow.  The bootstrap draws one
    resample stream per (seed, stream), on stream STREAM_BOOTSTRAP + stream,
    and every statistic and p of the batch reuses it.  A resample is kept as
    the exact number of times it draws each sample, so its power sums are the
    product of those counts with the powers |v / max|^p: blocks of
    _COUNT_BLOCK resamples (the last one padded with zero counts) are
    contracted with _SAMPLE_BLOCK samples at a time, and the blocks are added
    in sample order.  Every product has a shape fixed by S and the p grid, so
    no value depends on the number of statistics.  The batch's seed, its stream
    and STREAM_BOOTSTRAP + stream must lie in [0, 2^64) (:func:`_key_word`).
    """
    p_grid = [float(p) for p in p_grid]
    if any(not 1 <= p < math.inf for p in p_grid):
        raise ArgumentError(f"p grid {p_grid} must lie in [1, inf)")
    if resamples < 1:
        raise ArgumentError(f"resamples = {resamples} must be >= 1")
    seed = check_seed(batch.seed)
    _key_word(batch.stream, "sampling stream")
    boot_stream = _key_word(STREAM_BOOTSTRAP + batch.stream, "bootstrap stream")
    values = np.asarray(batch.values, dtype=np.float64)
    if values.ndim not in (1, 2):
        raise ArgumentError(f"batch values must be (S,) or (K, S), got shape {values.shape}")
    S = values.shape[-1]
    if S < 100:
        raise ArgumentError(f"need at least 100 samples, got {S}")
    _check_finite(values)
    rows = values.reshape(-1, S)
    scales = [float(np.abs(v).max(initial=0.0)) for v in rows]
    live = [k for k, m in enumerate(scales) if m > 0.0]

    # sums[k, j, r]: sum over resample r of |v_k / max|^p_j; r runs up to a
    # whole number of count blocks
    padded = -(-resamples // _COUNT_BLOCK) * _COUNT_BLOCK
    sums = np.zeros((rows.shape[0], len(p_grid), padded))
    rng = Generator(Philox(key=np.array([seed, boot_stream], dtype=np.uint64)))
    counts = np.empty((_COUNT_BLOCK, S), dtype=np.uint8)
    weights = np.empty((min(_SAMPLE_BLOCK, S), _COUNT_BLOCK))
    block_powers = np.empty((len(p_grid), weights.shape[0]))
    for r0 in range(0, padded, _COUNT_BLOCK):
        drawn = min(_COUNT_BLOCK, resamples - r0)
        for i in range(drawn):
            # how often the resample draws each sample; above 255 would wrap in uint8
            draws = np.bincount(rng.integers(0, S, size=S), minlength=S)
            if draws.max() > 255:
                raise SizeError(f"a resample draws one sample {int(draws.max())} times, above 255")
            counts[i] = draws
        counts[drawn:] = 0
        for s0 in range(0, S, _SAMPLE_BLOCK):
            s1 = min(s0 + _SAMPLE_BLOCK, S)
            w = weights[: s1 - s0]
            w[...] = counts[:, s0:s1].T
            t = block_powers[:, : s1 - s0]
            for k in live:
                u = np.abs(rows[k, s0:s1]) / scales[k]
                for j, p in enumerate(p_grid):
                    np.power(u, p, out=t[j])
                sums[k, :, r0 : r0 + _COUNT_BLOCK] += t @ w

    result = [[EmpiricalMoment(p, 0.0, 0.0, 0.0) for p in p_grid] for _ in scales]
    for k in live:
        m = scales[k]
        u = np.abs(rows[k]) / m
        for j, p in enumerate(p_grid):
            est = float(m * (np.add.reduce(u ** p) / S) ** (1.0 / p))
            lo_q, hi_q = np.quantile(m * (sums[k, j, :resamples] / S) ** (1.0 / p),
                                     [0.025, 0.975])
            result[k][j] = EmpiricalMoment(p, est, min(float(lo_q), est), max(float(hi_q), est))
    return result if values.ndim == 2 else result[0]


@dataclass
class TailFrequency:
    """Empirical exceedance frequency with a Wilson 95% interval."""

    frequency: float
    ci_low: float
    ci_high: float


def estimate_tail(batch: SampleBatch, t: float) -> TailFrequency:
    """Fraction of |v| > t with a Wilson 95% interval."""
    values = np.asarray(batch.values, dtype=np.float64)
    if values.ndim != 1:
        raise ArgumentError(f"batch values must be (S,), got shape {values.shape}")
    S = values.shape[0]
    if S < 100:
        raise ArgumentError(f"need at least 100 samples, got {S}")
    if math.isnan(t):
        raise ArgumentError("t = nan is not a threshold")
    _check_finite(values)
    hits = int(np.count_nonzero(np.abs(values) > t))
    z = 1.959963984540054
    phat = hits / S
    denom = 1.0 + z * z / S
    center = (phat + z * z / (2 * S)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / S + z * z / (4 * S * S)) / denom
    return TailFrequency(phat, max(0.0, center - half), min(1.0, center + half))
