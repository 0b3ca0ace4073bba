"""Seeded sampling of subgaussian Kronecker factors and empirical estimators.

Sampling is counter based: every factor entry of sample s sits at a fixed
position s * stride + offset of a Philox stream keyed by (seed, stream), so
any sample can be regenerated without generating its predecessors and batch
generation is vectorized.  Each entry consumes exactly one uniform double,
mapped through the inverse normal CDF for Gaussian entries; independent
copies use a distinct stream constant.

Only the Gaussian draw needs scipy, for ``scipy.special.ndtri``.
``_scipy_special`` imports the module on the first such draw, not when the
package is imported: after numpy, the import takes about 0.29 s and 25 MB of
peak memory on a 2-core x86 host, more than a small ``bounds`` report takes
to compute.  Runs that draw no Gaussian entry never load it.

Every statistic is computed on one sample layout.  ``kronecker_batch`` turns
the (S, n_l) factor rows into X^T of shape (N, S), one Kronecker vector per
column, built from contiguous transposed factor copies so that each product
runs along the sample axis.  ``chaos_batch`` forms (A X^T) * X^T,
``semi_decoupled_batch`` (M^T U^T) * V^T and ``norm_batch`` (A X^T)^2, and
each sums down the columns with ``_column_sums``, which adds the rows one
after another: N in-place adds, an order that depends neither on S nor on
the other columns (numpy's axis-0 reduce agrees for S >= 2 but reduces one
column pairwise).  So a statistic is a function of its sample's column, and
it has the same value in a chunk as in the whole batch and on any BLAS
thread count as long as its column of the product is rounded alike, which
the aligned chunks below ensure.

``sampled_statistics`` evaluates a statistic over S samples in chunks of
_STAT_CHUNK samples, so that only one chunk of factors, Kronecker vectors and
products is alive at a time, and returns them as a ``SampleBatch`` that
carries the (seed, stream) of its first sampler, the stream its bootstrap
resamples on.  The chunks give the values of one single-threaded product
over the whole batch: the sampler is counter based, so a chunk's draws are
the same samples of the whole batch, and every statistic is a function of
its sample's column.  BLAS rounds a sample alike in both only on the same
kernel path: OpenBLAS sends a product with a few samples through other
kernels than a wide one, and rounds the samples after a matrix-vector
product's last whole block apart.  So S is split into the fewest chunks of
at most _STAT_CHUNK samples, all of one size n, a multiple of _STAT_ALIGN,
and every chunk starts at a multiple of _STAT_ALIGN.  The last one ends at S,
overlaps its predecessor by fewer than _STAT_ALIGN samples per chunk and has
more than n - _STAT_ALIGN (one chunk when S <= _STAT_CHUNK).  A threaded
whole-batch product can round the samples at its thread boundaries apart;
the chunks do not.  tests/test_montecarlo.py checks both invariances.

The bootstrap of ``estimate_lp`` resamples a sample stream in B =
min(S, BOOT_BLOCKS) contiguous blocks, one row of B draws per resample, from
one integer stream keyed by (seed, STREAM_BOOTSTRAP + stream).  Every
statistic and every p evaluated on that sample stream share the draws, which
are drawn once.

Sums over samples run in a fixed order.  The bootstrap contracts exact block
counts with the block sums of each statistic's powers in one BLAS product,
whose shape is fixed by B, the p grid and the resample count, so a value does
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

# Most entries of Kronecker vectors that one kronecker_batch call builds: N x samples.
KRON_MATERIALIZE_CAP = 2**26

# Samples per block of the transposed factor copies that kronecker_batch builds from.
_TRANSPOSE_BLOCK = 1024

_MASK64 = (1 << 64) - 1

# Stream offset of the bootstrap resampling of a batch drawn on stream s: s + STREAM_BOOTSTRAP.
STREAM_BOOTSTRAP = 0x30

# Bootstrap resamples per L_p band, in every suite.
RESAMPLES = 200

# Most contiguous sample blocks that the bootstrap of estimate_lp resamples.
BOOT_BLOCKS = 1024

class Family(NamedTuple):
    """One entry family: ``draw(u, q)`` maps uniforms to entries, and
    ``psi2(q)`` is the subgaussian-norm bound sup_{p >= 1} ||Y||_p / sqrt(p),
    rounded up to 3 digits where it is not exact."""

    draw: Callable[[np.ndarray, float], np.ndarray]
    psi2: Callable[[float], float]


def _two_point(u: np.ndarray, q: float) -> np.ndarray:
    v = math.sqrt(1.0 / (2.0 * q))
    return np.where(u < q, v, np.where(u >= 1.0 - q, -v, 0.0))


def _two_point_psi2(q: float) -> float:
    """sup_p (2q)^(1/p - 1/2) / sqrt(p), attained at p* = max(1, -2 ln 2q).  It
    is taken in logs, so that every q in (0, 1/2] gives a finite value."""
    log_2q = math.log(2.0 * q)
    p = max(1.0, -2.0 * log_2q)
    return math.ceil(math.exp((1.0 / p - 0.5) * log_2q - 0.5 * math.log(p)) * 1000) / 1000


def _scipy_special():
    """scipy.special, imported on the first Gaussian draw (see the module
    docstring)."""
    import scipy.special

    return scipy.special


# Uniforms lie on the lattice {0, ..., 2^53 - 1} / 2^53; the half-ulp shift
# keeps the gaussian map finite and exactly symmetric.  The psi2 of the first
# three families is ||Y||_1, since the sup is at p = 1; uniform_sym's
# sqrt(3)/2 is rounded up.
FAMILIES = {
    "gaussian": Family(lambda u, q: _scipy_special().ndtri(u + 2.0**-54),
                       lambda q: math.sqrt(2.0 / math.pi)),
    "rademacher": Family(lambda u, q: np.copysign(1.0, u - 0.5), lambda q: 1.0),
    "uniform_sym": Family(lambda u, q: (2.0 * (u + 2.0**-54) - 1.0) * math.sqrt(3.0),
                          lambda q: 0.867),
    "two_point": Family(_two_point, _two_point_psi2),
}


def _family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ArgumentError(f"unknown family {name!r}") from None


@dataclass(frozen=True)
class DistributionSpec:
    """Entry distribution: a family and the q that only two_point reads.

    Every family has mean 0 and variance 1.  two_point(q) takes the values
    +-sqrt(1/(2q)) with probability q each and 0 otherwise, q <= 1/2.
    ``psi2_bound`` is the family's subgaussian-norm bound at q, and
    ``bound_L`` the value used inside the moment functionals, which require a
    bound that is at least 1.  A bad family or q is an ArgumentError.
    """

    family: str
    q: float = 0.25

    def __post_init__(self):
        _family(self.family)
        if self.family == "two_point" and not 0.0 < self.q <= 0.5:
            raise ArgumentError(f"two_point needs 0 < q <= 1/2, got {self.q}")

    @property
    def psi2_bound(self) -> float:
        return _family(self.family).psi2(self.q)

    @property
    def bound_L(self) -> float:
        return max(1.0, self.psi2_bound)

    @property
    def label(self) -> str:
        return f"two_point({self.q})" if self.family == "two_point" else self.family


def distribution(family: str, q: float | None = None) -> DistributionSpec:
    """DistributionSpec of the family.  Only two_point reads q (0.25 if not
    given); a q for another family is an ArgumentError."""
    spec = DistributionSpec(family, 0.25 if q is None else q)
    if q is not None and family != "two_point":
        raise ArgumentError(f"q changes nothing unless the family is two_point, got {family}")
    return spec


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
        # the draw maps only the entries' uniforms, not the padding of the last block
        u = u.reshape(count, self.stride_blocks * 4)[:, : sum(self.dims.sizes)]
        values = _family(self.dist.family).draw(u, self.dist.q)
        return [
            np.ascontiguousarray(values[:, off : off + n])
            for off, n in zip(self.offsets, self.dims.sizes)
        ]


def _sample_columns(m: np.ndarray) -> np.ndarray:
    """The (S, n) factor rows as a contiguous (n, S) array, copied
    _TRANSPOSE_BLOCK samples at a time, so that each block's reads stay in
    cache."""
    out = np.empty(m.shape[::-1])
    for s0 in range(0, m.shape[0], _TRANSPOSE_BLOCK):
        out[:, s0 : s0 + _TRANSPOSE_BLOCK] = m[s0 : s0 + _TRANSPOSE_BLOCK].T
    return out


def kronecker_batch(factor_mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker columns: (S, n_1), ..., (S, n_d) -> X^T of shape (N, S), whose
    column s is x_1(s) (x) ... (x) x_d(s), each entry one product taken left to
    right.  Every product runs along the contiguous sample axis."""
    S = factor_mats[0].shape[0]
    N = math.prod(m.shape[1] for m in factor_mats)
    if S * N > KRON_MATERIALIZE_CAP:
        raise SizeError(f"{S} Kronecker vectors of length {N} exceed "
                        f"{KRON_MATERIALIZE_CAP} entries")
    x = _sample_columns(factor_mats[0])
    for m in factor_mats[1:]:
        x = (x[:, None, :] * _sample_columns(m)[None, :, :]).reshape(-1, S)
    return x


def _column_sums(Y: np.ndarray) -> np.ndarray:
    """Sums down the columns of Y, adding its rows one after another.  The order
    does not depend on the number of columns; np.add.reduce(Y, axis=0) gives
    the same bits for two or more columns but reduces one column pairwise."""
    out = Y[0].copy()
    for row in Y[1:]:
        out += row
    return out


def chaos_batch(A: np.ndarray, factor_mats: Sequence[np.ndarray]) -> np.ndarray:
    """Vector of chaos statistics X_s^T A X_s - tr A across a sample batch,
    from the columns of (A X^T) * X^T."""
    A = np.asarray(A, dtype=np.float64)
    X = kronecker_batch(factor_mats)
    if A.shape != (X.shape[0], X.shape[0]):
        raise ShapeError(f"matrix shape {A.shape} does not match N = {X.shape[0]}")
    Y = A @ X
    Y *= X
    # the trace sums in the quadratic form's order, so that diagonal matrices
    # with +-1 factors give an exactly zero centered statistic
    return _column_sums(Y) - _column_sums(np.diagonal(A)[:, None])[0]


def norm_batch(A: np.ndarray, factor_mats: Sequence[np.ndarray]) -> np.ndarray:
    """Vector of norm-deviation statistics ||A X_s|| - ||A||_F across a sample
    batch, from the columns A X_s of one product A [X_1 ... X_S]."""
    A = np.asarray(A, dtype=np.float64)
    X = kronecker_batch(factor_mats)
    if A.ndim != 2 or A.shape[1] != X.shape[0]:
        raise ShapeError(f"matrix shape {A.shape} does not have N = {X.shape[0]} columns")
    Y = A @ X
    Y *= Y
    return np.sqrt(_column_sums(Y)) - frobenius(A)


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
    # M^T u_s is formed before the v_s, so that the u_s are freed first
    MU = M.T @ kronecker_batch([factor_mats[l - 1] ** 2 - 1.0 for l in Js]
                               + [factor_mats[l - 1] for l in C])
    if C:
        MU *= kronecker_batch([factor_bar_mats[l - 1] for l in C])
    return _column_sums(MU)


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
    before taking powers, so large p cannot overflow.  The band is the
    non-overlapping block bootstrap (Carlstein, Ann. Statist. 1986) over
    B = min(S, BOOT_BLOCKS) contiguous blocks, block b starting at sample
    b * S // B: the samples are i.i.d., so the blocks are too, and for
    S <= BOOT_BLOCKS each block is one sample.  A resample draws B blocks with
    replacement from the stream STREAM_BOOTSTRAP + stream of the batch's seed,
    drawn once for every statistic and p.  Its replicate is the mean of
    |v / max|^p over the drawn samples, the drawn block sums over the drawn
    block sizes: one (P, B) @ (B, resamples) product per statistic, so no
    value depends on the number of statistics.  The batch's seed, its stream
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

    # counts[b, r]: how often resample r draws block b
    B = min(S, BOOT_BLOCKS)
    starts = np.arange(B) * S // B
    rng = Generator(Philox(key=np.array([seed, boot_stream], dtype=np.uint64)))
    counts = np.empty((B, resamples))
    for r in range(resamples):
        counts[:, r] = np.bincount(rng.integers(0, B, size=B), minlength=B)
    drawn = np.diff(starts, append=S) @ counts  # samples per resample, exact

    result = []
    block_sums = np.empty((len(p_grid), B))
    for v in rows:
        m = float(np.abs(v).max(initial=0.0))
        if m == 0.0:
            result.append([EmpiricalMoment(p, 0.0, 0.0, 0.0) for p in p_grid])
            continue
        u = np.abs(v) / m
        estimates = []
        for j, p in enumerate(p_grid):
            powers = u ** p
            estimates.append(float(m * (np.add.reduce(powers) / S) ** (1.0 / p)))
            np.add.reduceat(powers, starts, out=block_sums[j])
        means = (block_sums @ counts) / drawn
        row = []
        for p, est, mean in zip(p_grid, estimates, means):
            lo_q, hi_q = np.quantile(m * mean ** (1.0 / p), [0.025, 0.975])
            row.append(EmpiricalMoment(p, est, min(float(lo_q), est), max(float(hi_q), est)))
        result.append(row)
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
