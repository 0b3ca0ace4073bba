"""Sampling streams, statistics, and the empirical estimators."""

import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from kronchaos import (
    Dims,
    DistributionSpec,
    FactorSampler,
    SampleBatch,
    chaos_quadratic,
    distribution,
    estimate_lp,
    estimate_tail,
    rearrange_matrix,
)
from kronchaos.errors import ArgumentError, AxisSetError, ShapeError, SizeError
import kronchaos
from kronchaos import montecarlo, suites
from kronchaos.identities import backbone_pairs, pair_contraction, semi_decoupled_spec
from kronchaos.montecarlo import (
    chaos_batch,
    kronecker_batch,
    norm_batch,
    sampled_statistics,
    semi_decoupled_batch,
)
from kronchaos.norms import NormOptions

DIMS = Dims([3, 4])


def one_sample(*vectors):
    """One-sample factor batch: each vector as a (1, n) matrix."""
    return [np.asarray(v, dtype=np.float64)[None, :] for v in vectors]


def sample_factors(sampler, s):
    """The d factor vectors of sample s, regenerated standalone."""
    return [m[0] for m in sampler.batch(s, 1)]


def test_sampler_determinism_and_streams():
    dist = distribution("gaussian")
    a = FactorSampler(DIMS, dist, seed=1, stream=5).batch(0, 100)
    b = FactorSampler(DIMS, dist, seed=1, stream=5).batch(0, 100)
    c = FactorSampler(DIMS, dist, seed=1, stream=6).batch(0, 100)
    d = FactorSampler(DIMS, dist, seed=2, stream=5).batch(0, 100)
    for l in range(2):
        assert np.array_equal(a[l], b[l])
        assert not np.array_equal(a[l], c[l])
        assert not np.array_equal(a[l], d[l])


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_sampler_rejects_a_seed_outside_64_bits(seed):
    # masked to 64 bits, such a seed drew the samples of seed mod 2^64
    with pytest.raises(ArgumentError, match=r"sampling seed must lie in \[0, 2\^64\)"):
        FactorSampler(DIMS, distribution("rademacher"), seed=seed, stream=5)


@pytest.mark.parametrize("stream", [-1, 2**64])
def test_sampler_rejects_a_stream_outside_64_bits(stream):
    # masked to 64 bits, stream -1 drew the samples of stream 2^64 - 1
    with pytest.raises(ArgumentError, match=r"sampling stream must lie in \[0, 2\^64\)"):
        FactorSampler(DIMS, distribution("rademacher"), seed=0, stream=stream)


def test_sampler_accepts_the_largest_64_bit_seed():
    top = FactorSampler(DIMS, distribution("rademacher"), seed=2**64 - 1, stream=5).batch(0, 50)
    zero = FactorSampler(DIMS, distribution("rademacher"), seed=0, stream=5).batch(0, 50)
    assert not all(np.array_equal(a, b) for a, b in zip(top, zero))


def test_sampler_counter_based_regeneration():
    # any sample is reproducible standalone and from any batch offset
    for fam in ("gaussian", "rademacher", "uniform_sym", "two_point"):
        fs = FactorSampler(DIMS, distribution(fam), seed=9, stream=1)
        batch = fs.batch(0, 300)
        for s in (0, 1, 137, 299):
            single = sample_factors(fs, s)
            for l in range(2):
                assert np.array_equal(single[l], batch[l][s]), (fam, s, l)
        mid = fs.batch(100, 50)
        for l in range(2):
            assert np.array_equal(mid[l], batch[l][100:150])


def test_sample_factors_shapes():
    fs = FactorSampler(DIMS, distribution("gaussian"), seed=0, stream=0)
    assert [m.shape for m in fs.batch(0, 1)] == [(1, 3), (1, 4)]
    assert [m.shape for m in fs.batch(5, 7)] == [(7, 3), (7, 4)]


def test_rademacher_support():
    v = FactorSampler(Dims([7]), distribution("rademacher"), 0, 0).batch(0, 500)[0]
    assert set(np.unique(v)) == {-1.0, 1.0}


def test_rademacher_draw_at_the_lattice_edges():
    # u lies on the lattice {0, ..., 2^53 - 1} / 2^53; u = 1/2 draws +1
    u = np.array([0.0, 0.5 - 2.0**-53, 0.5, 1.0 - 2.0**-53])
    got = montecarlo.FAMILIES["rademacher"].draw(u, 0.25)
    assert np.array_equal(got, np.where(u < 0.5, -1.0, 1.0))
    assert np.array_equal(got, [-1.0, -1.0, 1.0, 1.0])


def test_two_point_support_and_mass():
    dist = distribution("two_point", q=0.25)
    v = FactorSampler(Dims([10]), dist, 0, 0).batch(0, 20000)[0].ravel()
    val = math.sqrt(1.0 / 0.5)
    assert set(np.round(np.unique(v), 12)) <= {-round(val, 12), 0.0, round(val, 12)}
    frac_zero = np.mean(v == 0.0)
    assert frac_zero == pytest.approx(0.5, abs=0.02)


def test_gaussian_moments_clt():
    S = 100_000
    v = FactorSampler(Dims([1]), distribution("gaussian"), 3, 0).batch(0, S)[0].ravel()
    assert abs(v.mean()) <= 4.0 / math.sqrt(S)
    assert v.var() == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("fam", ["gaussian", "rademacher", "uniform_sym", "two_point"])
def test_unit_variance_all_families(fam):
    v = FactorSampler(Dims([5]), distribution(fam), 4, 0).batch(0, 40_000)[0].ravel()
    assert abs(v.mean()) <= 5.0 / math.sqrt(v.size)
    assert v.var() == pytest.approx(1.0, rel=0.05)


# ||Y||_p of each family, the reference for its psi2 bound sup_p ||Y||_p / sqrt(p)
LP_NORMS = {
    "gaussian": lambda p, q: np.sqrt(2.0) * np.exp(
        (np.array([math.lgamma((x + 1.0) / 2.0) for x in p]) - math.lgamma(0.5)) / p),
    "rademacher": lambda p, q: np.ones_like(p),
    "uniform_sym": lambda p, q: np.sqrt(3.0) * (p + 1.0) ** (-1.0 / p),
    "two_point": lambda p, q: (2.0 * q) ** (1.0 / p - 0.5),
}


def test_psi2_constants_match_numeric_sup():
    p = np.linspace(1.0, 200.0, 20000)
    for family, q in [("gaussian", None), ("rademacher", None), ("uniform_sym", None),
                      ("two_point", 0.25), ("two_point", 0.01), ("two_point", 1e-6)]:
        sup = float((LP_NORMS[family](p, q) / np.sqrt(p)).max())
        # an upper bound, within one unit in the third digit where it is rounded up
        gap = distribution(family, q).psi2_bound - sup
        assert -1e-15 <= gap < 1e-3, (family, q, gap)
    assert distribution("gaussian").psi2_bound == math.sqrt(2.0 / math.pi)  # ||g||_1
    assert distribution("rademacher").psi2_bound == 1.0
    assert distribution("gaussian").bound_L == 1.0  # moment formulas need L >= 1


@pytest.mark.parametrize("q, psi2", [(0.25, 0.729), (0.1, 0.756), (0.01, 1.534),
                                     (1e-6, 83.718)])
def test_two_point_psi2_keeps_its_rounded_values(q, psi2):
    assert distribution("two_point", q).psi2_bound == psi2


def test_two_point_psi2_past_the_old_p_grid():
    # p* = -2 ln 2q lies past p = 200 once q < 1.9e-44, where a maximum over
    # p in [1, 200] gave 2.8215e23 at q = 1e-50
    assert distribution("two_point", 1e-50).psi2_bound == pytest.approx(2.8349227e23, rel=1e-7)
    tiny = distribution("two_point", 5e-324).psi2_bound  # 1/sqrt(4e q ln(1/2q)) gives 0.0
    assert math.isfinite(tiny) and tiny == pytest.approx(5.0e159, rel=1e-2)


def test_two_point_q_validation():
    with pytest.raises(ArgumentError):
        distribution("two_point", q=0.75)
    with pytest.raises(ArgumentError):
        distribution("nonesuch")


def test_only_two_point_reads_q():
    assert distribution("two_point") == distribution("two_point", 0.25)
    for family in ("gaussian", "rademacher", "uniform_sym"):
        # q used to be ignored silently for these families
        with pytest.raises(ArgumentError, match=f"q changes nothing unless the family is "
                                                f"two_point, got {family}"):
            distribution(family, q=0.3)


@pytest.mark.parametrize("args, message", [
    (("nonesuch",), "unknown family 'nonesuch'"),
    (("two_point", 0.9), "two_point needs 0 < q <= 1/2, got 0.9"),
    (("two_point", 0.0), "two_point needs 0 < q <= 1/2, got 0.0"),
], ids=["family", "q-0.9", "q-0"])
def test_hand_built_distribution_spec_checks_itself(args, message):
    # q = 0.9 drew a distribution that is not two_point(q)
    with pytest.raises(ArgumentError, match=re.escape(message)):
        DistributionSpec(*args)


# ---------------------------------------------------------------------------
# Kronecker products


def test_kronecker_vector_examples():
    x = np.array([2.0, -1.0])
    assert np.array_equal(kronecker_batch(one_sample(x)), x[None, :])
    got = kronecker_batch(one_sample([1.0, 0.0], [3.0, 4.0]))
    assert np.array_equal(got, np.array([[3.0, 4.0, 0.0, 0.0]]))


def test_kronecker_vector_against_np_kron():
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal(n) for n in (2, 3, 4)]
    want = np.kron(np.kron(factors[0], factors[1]), factors[2])
    X = kronecker_batch(one_sample(*factors))
    assert X.shape == (1, 24)
    np.testing.assert_allclose(X[0], want, rtol=1e-15)
    norms = np.prod([np.linalg.norm(f) for f in factors])
    assert np.linalg.norm(X[0]) == pytest.approx(norms, rel=1e-12)


def test_kronecker_vector_size_cap():
    with pytest.raises(SizeError):
        kronecker_batch(one_sample(np.ones(2**9), np.ones(2**9), np.ones(2**9)))


def test_kronecker_size_cap_counts_every_row(monkeypatch):
    # the cap bounds the whole (rows, N) chunk, not one Kronecker vector
    monkeypatch.setattr(montecarlo, "KRON_MATERIALIZE_CAP", 1000)
    ones = np.ones((100, 4))
    with pytest.raises(SizeError, match="100 Kronecker vectors of length 16 exceed 1000"):
        kronecker_batch([ones, ones])
    assert kronecker_batch([ones[:62], ones[:62]]).shape == (62, 16)
    # norm_batch builds its own Kronecker columns under the same cap
    with pytest.raises(SizeError, match="100 Kronecker vectors of length 16 exceed 1000"):
        norm_batch(np.eye(16), [ones, ones])
    assert norm_batch(np.eye(16), [ones[:62], ones[:62]]).shape == (62,)


@pytest.mark.parametrize("widths", [(1,), (2, 3), (2, 2, 2, 2), (6, 6, 6)])
def test_kronecker_layouts_equal_the_left_to_right_products(widths):
    # every entry is one product x_1[i_1] * ... * x_d[i_d], taken left to right
    # in both layouts, so the rows and the columns agree exactly
    rng = np.random.default_rng(len(widths))
    mats = [rng.standard_normal((50, n)) for n in widths]
    want = np.array([functools.reduce(np.kron, [m[s] for m in mats]) for s in range(50)])
    rows, cols = kronecker_batch(mats), montecarlo._kronecker_columns(mats)
    assert rows.shape == (50, math.prod(widths)) and cols.shape == (math.prod(widths), 50)
    assert np.array_equal(rows, want)
    assert np.array_equal(cols, rows.T)


def test_kronecker_batch_matches_single():
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((10, n)) for n in (2, 3)]
    X = kronecker_batch(mats)
    for s in range(10):
        np.testing.assert_allclose(X[s], np.kron(mats[0][s], mats[1][s]), rtol=1e-15)


# ---------------------------------------------------------------------------
# statistics


def test_chaos_statistic_zero_matrix():
    x = one_sample([1.0, 2.0], [0.5, -0.5])
    assert np.array_equal(chaos_batch(np.zeros((4, 4)), x), [0.0])


def test_chaos_statistic_shape_error():
    with pytest.raises(ShapeError):
        chaos_batch(np.zeros((3, 3)), one_sample(np.ones(2), np.ones(2)))


@pytest.mark.parametrize("n", [2, 3, 8, 16, 37, 64])
def test_rademacher_diagonal_chaos_exactly_zero(n):
    rng = np.random.default_rng(n)
    D = np.diag(rng.standard_normal(n))
    dist = distribution("rademacher")
    fs = FactorSampler(Dims([n]), dist, seed=5, stream=2)
    vals = chaos_batch(D, fs.batch(0, 500))
    assert np.all(vals == 0.0)
    single = chaos_batch(D, fs.batch(17, 1))
    assert np.array_equal(single, [0.0])


def test_chaos_batch_matches_single():
    # against the order-2d contraction of one realization, minus the trace
    rng = np.random.default_rng(2)
    dims = Dims([2, 3])
    A = rng.standard_normal((6, 6))
    fs = FactorSampler(dims, distribution("uniform_sym"), 8, 3)
    mats = fs.batch(0, 50)
    vals = chaos_batch(A, mats)
    A2d = rearrange_matrix(A, dims)
    for s in (0, 13, 49):
        want = chaos_quadratic(A2d, sample_factors(fs, s)) - np.trace(A)
        assert vals[s] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_chaos_gaussian_l2_anchor():
    # statistic sum(g^2 - 1) over n coordinates has L_2 = sqrt(2n)
    n, S = 4, 30_000
    vals = chaos_batch(np.eye(n), FactorSampler(Dims([n]), distribution("gaussian"), 11, 0).batch(0, S))
    l2 = math.sqrt(np.mean(vals**2))
    assert l2 == pytest.approx(math.sqrt(2 * n), rel=0.1)


def test_norm_statistic_examples():
    rng = np.random.default_rng(3)
    # single-row matrix: ||AX||_2 = |X_i|
    A = np.zeros((1, 4))
    A[0, 2] = 1.0
    x = [rng.standard_normal(2), rng.standard_normal(2)]
    X = np.kron(x[0], x[1])
    assert norm_batch(A, one_sample(*x))[0] == pytest.approx(abs(X[2]) - 1.0, rel=1e-12)
    # identity with rademacher factors: exactly zero
    signs = one_sample([1.0, -1.0], [-1.0, 1.0])
    assert np.array_equal(norm_batch(np.eye(4), signs), [0.0])
    vals = norm_batch(np.eye(4), FactorSampler(Dims([2, 2]), distribution("rademacher"), 1, 0).batch(0, 200))
    assert np.all(vals == 0.0)


def test_norm_statistic_chi_square_mean():
    # E ||X||^2 = n for gaussian d=1
    n, S = 6, 40_000
    vals = norm_batch(np.eye(n), FactorSampler(Dims([n]), distribution("gaussian"), 13, 0).batch(0, S))
    sq = (vals + math.sqrt(n)) ** 2
    se = sq.std() / math.sqrt(S)
    assert abs(sq.mean() - n) <= 3 * se


def test_norm_batch_matches_single():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 6))
    fs = FactorSampler(Dims([2, 3]), distribution("gaussian"), 21, 9)
    vals = norm_batch(A, fs.batch(0, 40))
    for s in (0, 39):
        x = sample_factors(fs, s)
        want = np.linalg.norm(A @ np.kron(x[0], x[1])) - np.linalg.norm(A)
        assert vals[s] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("A", [np.ones(4), np.ones((4, 4, 1))], ids=["1-d", "3-d"])
def test_norm_batch_rejects_a_non_matrix(A):
    # a 1-D A raised IndexError, and a (4, 4, 1) A returned a (1, S) array
    with pytest.raises(ShapeError, match=re.escape(f"matrix shape {A.shape}")):
        norm_batch(A, one_sample([1.0, 2.0], [3.0, 4.0]))


def _ax_tail_input(seed, S):
    """The benchmark's 6,6,6 gaussian ax-tail input: its 216 x 216 matrix and
    the factors of S samples on ax-tail's stream."""
    sampler = FactorSampler(Dims([6, 6, 6]), distribution("gaussian"), seed,
                            suites._STREAMS["ax-tail"])
    return _cli_matrix(216), sampler.batch(0, S)


@pytest.mark.parametrize("seed", range(5))
def test_norm_batch_matches_the_row_layout(seed):
    # the sum of squares runs down the columns of A X^T, not along the rows of
    # X A^T, so a value may move in its last bits but no exceedance count does;
    # a deviation can lie near 0, so the difference is taken relative to ||A X_s||
    A, mats = _ax_tail_input(seed, 20_000)
    fro = montecarlo.frobenius(A)
    rows = np.sqrt(np.add.reduce((kronecker_batch(mats) @ A.T) ** 2, axis=1)) - fro
    got = norm_batch(A, mats)
    assert np.max(np.abs(got - rows) / (rows + fro)) <= 1e-13
    for t in fro * np.array([0.25, 0.5, 1.0]):  # verify_ax_tail's default t grid
        assert np.count_nonzero(np.abs(got) > t) == np.count_nonzero(np.abs(rows) > t)


def test_norm_batch_peak_memory():
    # the Kronecker columns and the product A X^T are the only (S, N) arrays
    # alive at once: the columns are freed before the product is squared in place
    A, mats = _ax_tail_input(3, montecarlo._STAT_CHUNK)
    norm_batch(A, mats)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        norm_batch(A, mats)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * montecarlo._STAT_CHUNK * 216 * 8


def test_norm_batch_values_do_not_depend_on_blas_threads():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_montecarlo as t; "
            "from kronchaos.montecarlo import norm_batch; "
            "print(norm_batch(*t._ax_tail_input(5, 8192)).tobytes().hex())")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(kronchaos.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                           capture_output=True, text=True, timeout=600, check=True)
    assert child.stdout.strip() == norm_batch(*_ax_tail_input(5, 8192)).tobytes().hex()


def test_semi_decoupled_batch_matches_single():
    rng = np.random.default_rng(5)
    dims = Dims([2, 2])
    A = rearrange_matrix(rng.standard_normal((4, 4)), dims)
    fs = FactorSampler(dims, distribution("gaussian"), 31, 1)
    fsb = FactorSampler(dims, distribution("gaussian"), 31, 2)
    mats, bmats = fs.batch(0, 30), fsb.batch(0, 30)
    for I, J in [((), ()), ((1,), ()), ((1,), (1,)), ((1, 2), (2,))]:
        vals = semi_decoupled_batch(A, I, J, mats, bmats)
        for s in (0, 29):
            # the same spec contracted for one realization, without the sample axis
            spec = semi_decoupled_spec(2, I, J, sample_factors(fs, s), sample_factors(fsb, s))
            want = pair_contraction(A, spec)
            assert vals[s] == pytest.approx(want, rel=1e-11, abs=1e-12)
    # the fully decoupled term is the bilinear form X^T A Xbar
    vals = semi_decoupled_batch(A, (), (), mats, bmats)
    for s in (0, 29):
        x, xb = sample_factors(fs, s), sample_factors(fsb, s)
        want = np.kron(x[0], x[1]) @ A.data.reshape(4, 4) @ np.kron(xb[0], xb[1])
        assert vals[s] == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_semi_decoupled_batch_matches_single_for_every_d3_term():
    # unequal dims pin the row and column axis order of the reduced matrix
    rng = np.random.default_rng(12)
    dims = Dims([2, 3, 2])
    A = rearrange_matrix(rng.standard_normal((12, 12)), dims)
    fs = FactorSampler(dims, distribution("uniform_sym"), 41, 1)
    fsb = FactorSampler(dims, distribution("uniform_sym"), 41, 2)
    mats, bmats = fs.batch(0, 20), fsb.batch(0, 20)
    for I, J in backbone_pairs(3):
        vals = semi_decoupled_batch(A, I, J, mats, bmats)
        assert vals.shape == (20,)
        for s in (0, 7, 19):
            spec = semi_decoupled_spec(3, I, J, sample_factors(fs, s), sample_factors(fsb, s))
            assert vals[s] == pytest.approx(pair_contraction(A, spec), rel=1e-11, abs=1e-12)


def test_semi_decoupled_batch_trace_term_has_no_sample_axis():
    # I \ J = [d]: every pair is tied and summed, so no operand carries samples
    dims = Dims([2, 2])
    A = rearrange_matrix(np.eye(4), dims)
    mats = FactorSampler(dims, distribution("gaussian"), 0, 1).batch(0, 3)
    with pytest.raises(AxisSetError, match="sample axis"):
        semi_decoupled_batch(A, (1, 2), (), mats, mats)


# ---------------------------------------------------------------------------
# estimators


def _batch(values, seed=0, stream=0):
    v = np.asarray(values, dtype=np.float64)
    return SampleBatch(seed, stream, v)


def test_estimate_lp_constant_batch():
    b = _batch(np.full(200, -2.5))
    for m in estimate_lp(b, (1.0, 2.0, 7.0)):
        assert m.estimate == pytest.approx(2.5, rel=1e-12)
        assert m.ci_low <= m.estimate <= m.ci_high


def test_estimate_lp_balanced_signs():
    b = _batch(np.array([-1.0, 1.0] * 100))
    for m in estimate_lp(b, (1.0, 3.0, 8.0)):
        assert m.estimate == pytest.approx(1.0, rel=1e-12)


def test_estimate_lp_gaussian_p2():
    S = 50_000
    v = FactorSampler(Dims([1]), distribution("gaussian"), 2, 0).batch(0, S)[0].ravel()
    m, = estimate_lp(_batch(v, seed=2), [2.0])
    assert m.estimate == pytest.approx(1.0, rel=0.03)


def test_estimate_lp_zero_batch_and_errors():
    assert estimate_lp(_batch(np.zeros(150)), [4.0])[0].estimate == 0.0
    with pytest.raises(ArgumentError):
        estimate_lp(_batch(np.ones(50)), [2.0])
    with pytest.raises(ArgumentError):
        estimate_lp(_batch(np.ones(150)), [0.5])
    with pytest.raises(ArgumentError, match=r"\(S,\) or \(K, S\)"):
        estimate_lp(SampleBatch(0, 0, np.ones((2, 2, 150))), [2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimators_reject_non_finite_values(bad):
    # a nan is neither > 0 nor > t, so it would read as a zero L_p norm and as no exceedance
    v = np.ones(150)
    v[7] = bad
    with pytest.raises(ArgumentError, match="non-finite"):
        estimate_lp(_batch(v), [2.0])
    with pytest.raises(ArgumentError, match="non-finite"):
        estimate_lp(SampleBatch(0, 0, np.stack([np.ones(150), v])), [2.0])
    with pytest.raises(ArgumentError, match="non-finite"):
        estimate_tail(_batch(v), 1.0)


@pytest.mark.parametrize("p", [np.nan, np.inf])
def test_estimate_lp_rejects_a_non_finite_p(p):
    with pytest.raises(ArgumentError, match=r"must lie in \[1, inf\)"):
        estimate_lp(_batch(np.ones(150)), [2.0, p])


@pytest.mark.parametrize("shape", [(3, 150), (), (2, 2, 150)])
def test_estimate_tail_rejects_values_that_are_not_one_statistic(shape):
    # a (K, S) batch counted every entry against S and died in the Wilson interval
    with pytest.raises(ArgumentError, match=r"must be \(S,\)"):
        estimate_tail(SampleBatch(0, 0, np.ones(shape)), 0.5)


def test_estimate_tail_needs_100_samples():
    with pytest.raises(ArgumentError, match="need at least 100 samples, got 99"):
        estimate_tail(_batch(np.ones(99)), 0.5)


def test_estimate_tail_rejects_a_nan_t():
    # |v| > nan is false for every sample, so a nan t read as no exceedance
    with pytest.raises(ArgumentError, match="t = nan"):
        estimate_tail(_batch(np.ones(150)), math.nan)


@pytest.mark.parametrize("resamples", [0, -3])
def test_estimate_lp_rejects_resamples_below_one(resamples):
    with pytest.raises(ArgumentError, match="resamples"):
        estimate_lp(_batch(np.ones(150)), [2.0], resamples)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_estimate_lp_rejects_a_seed_outside_64_bits(seed):
    # masked to 64 bits, such a seed drew the bootstrap of seed mod 2^64
    with pytest.raises(ArgumentError, match="sampling seed"):
        estimate_lp(SampleBatch(seed, 0, np.arange(150.0)), [2.0])


@pytest.mark.parametrize("stream, name", [(-0x30, "sampling stream"),
                                          (2**64, "sampling stream"),
                                          (2**64 - 0x30, "bootstrap stream")])
def test_estimate_lp_rejects_a_stream_outside_64_bits(stream, name):
    # masked to 64 bits, stream -0x30 bootstrapped on the resamples of stream 0's batch
    with pytest.raises(ArgumentError, match=rf"{name} must lie in \[0, 2\^64\)"):
        estimate_lp(SampleBatch(0, stream, np.arange(150.0)), [2.0])


def test_estimate_lp_deterministic():
    v = np.random.default_rng(0).standard_normal(500)
    a, = estimate_lp(_batch(v, seed=7, stream=3), [4.0])
    b, = estimate_lp(_batch(v, seed=7, stream=3), [4.0])
    assert (a.estimate, a.ci_low, a.ci_high) == (b.estimate, b.ci_low, b.ci_high)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=100, max_size=300),
       st.floats(1.0, 8.0), st.floats(1.0, 8.0))
def test_estimate_lp_monotone_in_p(values, p1, p2):
    b = _batch(np.array(values))
    lo, hi = sorted((p1, p2))
    lo_m, hi_m = estimate_lp(b, [lo, hi], resamples=2)
    assert lo_m.estimate <= hi_m.estimate * (1 + 1e-12)


def _stacked(S=301):
    """Three statistics on one stream, the middle one all zero; S is odd."""
    rng = np.random.default_rng(11)
    values = np.stack([rng.standard_normal(S), np.zeros(S), rng.standard_t(3, S)])
    return SampleBatch(5, 9, values)


def test_estimate_lp_stacked_rows_match_one_row_calls():
    b = _stacked()
    grid = (1.0, 2.0, 4.0, 7.5)
    stacked = estimate_lp(b, grid, 50)
    assert len(stacked) == 3 and all(len(row) == len(grid) for row in stacked)
    for v, row in zip(b.values, stacked):
        assert row == estimate_lp(SampleBatch(b.seed, b.stream, v), grid, 50)
    assert all(m.estimate == m.ci_low == m.ci_high == 0.0 for m in stacked[1])


def _gather_lp(batch, p_grid, resamples):
    """(estimate, ci_low, ci_high) per statistic and p by the gather-and-sum
    block bootstrap: the samples are cut into B = min(S, BOOT_BLOCKS)
    contiguous blocks, every resample's block sums and block sizes are
    gathered by index, and its mean is their ratio."""
    S = batch.count
    B = min(S, montecarlo.BOOT_BLOCKS)
    edges = [b * S // B for b in range(B + 1)]
    sizes = np.diff(edges)
    key = np.array([batch.seed, montecarlo.STREAM_BOOTSTRAP + batch.stream], dtype=np.uint64)
    idx = Generator(Philox(key=key)).integers(0, B, size=(resamples, B))
    drawn = np.add.reduce(np.take(sizes, idx), axis=1)
    out = []
    for v in np.reshape(batch.values, (-1, S)):
        m = np.abs(v).max(initial=0.0)
        row = []
        for p in p_grid:
            if m == 0.0:
                row.append((0.0, 0.0, 0.0))
                continue
            t = (np.abs(v) / m) ** p
            est = m * (np.add.reduce(t) / S) ** (1.0 / p)
            block = np.array([t[lo:hi].sum() for lo, hi in zip(edges, edges[1:])])
            boot = m * (np.add.reduce(np.take(block, idx), axis=1) / drawn) ** (1.0 / p)
            lo, hi = np.quantile(boot, [0.025, 0.975])
            row.append((est, min(lo, est), max(hi, est)))
        out.append(row)
    return out


@pytest.mark.parametrize("S, resamples",
                         [(301, 50), (301, 200), (1025, 70), (5003, 130)])
def test_estimate_lp_matches_gather_and_sum(S, resamples):
    # odd S: one sample per block (S = 301), blocks of 1 and 2 samples
    # (S = 1025) and of 4 and 5 (S = 5003); an all-zero statistic among K
    rng = np.random.default_rng(S)
    values = np.stack([rng.standard_normal(S), np.zeros(S), rng.standard_t(3, S)])
    grid = (1.0, 2.0, 4.0, 7.5)
    stacked = SampleBatch(5, 9, values)
    want = _gather_lp(stacked, grid, resamples)
    one_row = [estimate_lp(SampleBatch(5, 9, v), grid, resamples) for v in values]
    for rows in (estimate_lp(stacked, grid, resamples), one_row):
        got = [[(m.estimate, m.ci_low, m.ci_high) for m in row] for row in rows]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_estimate_lp_bands_cover_exact_gaussian_square_norms():
    # Q = sum a_k (g_k^2 - 1) has ||Q||_2 = sqrt(2 sum a^2) and
    # ||Q||_4 = (48 sum a^4 + 12 (sum a^2)^2)^(1/4).  At 95% coverage, fewer
    # than 33 covering bands in 40 runs has probability 0.07%.
    a = np.arange(1.0, 9.0)
    s2, s4 = np.sum(a**2), np.sum(a**4)
    exact = {2.0: math.sqrt(2.0 * s2), 4.0: (48.0 * s4 + 12.0 * s2**2) ** 0.25}
    covered = dict.fromkeys(exact, 0)
    for seed in range(40):
        sampler = FactorSampler(Dims([8]), distribution("gaussian"), seed, 0)
        batch = sampled_statistics([sampler], 20_000, lambda mats: chaos_batch(np.diag(a), mats))
        for m in estimate_lp(batch, list(exact)):
            covered[m.p] += m.ci_low <= exact[m.p] <= m.ci_high
    assert min(covered.values()) >= 33, covered


def _count_calls(monkeypatch) -> tuple[list[list[int]], list[int]]:
    """The sampler streams of the suites' sampled_statistics calls and the
    value ndims of their estimate_lp calls."""
    sampled, calls = [], []

    def counted_sampling(samplers, S, statistic):
        sampled.append([sampler.stream for sampler in samplers])
        return sampled_statistics(samplers, S, statistic)

    def counted(batch, p_grid):
        calls.append(np.ndim(batch.values))
        return estimate_lp(batch, p_grid)

    monkeypatch.setattr(suites, "sampled_statistics", counted_sampling)
    monkeypatch.setattr(suites, "estimate_lp", counted)
    return sampled, calls


@pytest.mark.parametrize("suite, run, expected", [
    ("decoupling", lambda: suites.verify_decoupling(
        np.random.default_rng(1).standard_normal((8, 8)), Dims([2, 2, 2]),
        distribution("rademacher"), (2.0, 4.0), S=1000, seed=1), [2]),
    ("gaussian-decoupling", lambda: suites.verify_gaussian_decoupling(
        np.arange(1.0, 4.0), (2.0, 4.0, 8.0), S=500, seed=1), [2]),
    ("main-upper", lambda: suites.verify_main_upper(
        np.eye(4), Dims([2, 2]), distribution("gaussian"), (2.0, 4.0, 8.0), S=500, seed=1,
        norm_opts=NormOptions(restarts=2)), [1]),
    ("main-lower", lambda: suites.verify_main_lower(
        np.eye(4), Dims([2, 2]), (2.0, 4.0, 8.0), S=500, seed=1,
        norm_opts=NormOptions(restarts=2)), [1]),
])
def test_one_estimate_lp_call_per_sample_stream(monkeypatch, suite, run, expected):
    # one batch per report: the inequality suites stack both sides on one stream
    sampled, calls = _count_calls(monkeypatch)
    assert run()["suite"] == suite
    assert len(sampled) == 1 and len(set(sampled[0])) == len(sampled[0])
    assert calls == expected


def test_estimate_tail_edges():
    b = _batch(np.array([0.5, -1.5, 2.0] * 50))
    assert estimate_tail(b, 0.0).frequency == 1.0
    assert estimate_tail(b, 10.0).frequency == 0.0
    t = estimate_tail(b, 1.0)
    assert t.ci_low <= t.frequency <= t.ci_high


def test_estimate_tail_gaussian_quantile():
    S = 50_000
    v = FactorSampler(Dims([1]), distribution("gaussian"), 6, 0).batch(0, S)[0].ravel()
    t = estimate_tail(_batch(v), 1.96)
    assert t.frequency == pytest.approx(0.05, abs=0.008)


def test_sample_batch_regeneration_bit_identical():
    dims = Dims([2, 2])
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 4))
    def make():
        vals = chaos_batch(A, FactorSampler(dims, distribution("gaussian"), 17, 4).batch(0, 500))
        return SampleBatch(17, 4, vals)
    a, b = make(), make()
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# chunked statistics


def _cli_matrix(n):
    return np.random.default_rng((0, 0x6D6174)).standard_normal((n, n))


def _terms(A, dims):
    A2d, pairs = rearrange_matrix(A, dims), backbone_pairs(dims.order)
    return lambda fm, fbm: np.stack([semi_decoupled_batch(A2d, I, J, fm, fbm)
                                     for I, J in pairs])


def _gd_streams(a):
    return lambda g, gbar: np.stack([(g[0] * g[0] - 1.0) @ a, (g[0] * gbar[0]) @ a])


# The statistics of the benchmark's reports: (dims, family, statistic, samplers).
STATISTIC_SHAPES = {
    "norm-6,6,6": (Dims([6, 6, 6]), "gaussian", lambda m: norm_batch(_cli_matrix(216), m), 1),
    "norm-4,4,4": (Dims([4, 4, 4]), "two_point", lambda m: norm_batch(_cli_matrix(64), m), 1),
    "norm-rect-3,3": (Dims([3, 3]), "gaussian",
                      lambda m: norm_batch(np.random.default_rng(12).standard_normal((12, 9)), m),
                      1),
    "norm-64": (Dims([64]), "rademacher", lambda m: norm_batch(_cli_matrix(64), m), 1),
    "chaos-64": (Dims([64]), "rademacher", lambda m: chaos_batch(_cli_matrix(64), m), 1),
    "chaos-3,3": (Dims([3, 3]), "gaussian", lambda m: chaos_batch(_cli_matrix(9), m), 1),
    "chaos-2,2,2": (Dims([2, 2, 2]), "rademacher", lambda m: chaos_batch(_cli_matrix(8), m),
                    1),
    "terms-2,2": (Dims([2, 2]), "gaussian", _terms(_cli_matrix(4), Dims([2, 2])), 2),
    "terms-2,2,2": (Dims([2, 2, 2]), "rademacher", _terms(_cli_matrix(8), Dims([2, 2, 2])), 2),
    "gaussian-decoupling-8": (Dims([8]), "gaussian",
                              _gd_streams(np.random.default_rng((0, 0x766563))
                                          .standard_normal(8)), 2),
}


@pytest.mark.parametrize("S", [2 * montecarlo._STAT_CHUNK + 17, montecarlo._STAT_CHUNK + 1,
                               1000])
@pytest.mark.parametrize("shape", sorted(STATISTIC_SHAPES))
def test_sampled_statistics_equal_the_whole_batch(shape, S):
    dims, family, statistic, m = STATISTIC_SHAPES[shape]
    samplers = [FactorSampler(dims, distribution(family), 7, 0x400 + i) for i in range(m)]
    whole = statistic(*(s.batch(0, S) for s in samplers))
    chunked = sampled_statistics(samplers, S, statistic)
    assert (chunked.seed, chunked.stream, chunked.count) == (7, 0x400, S)
    assert chunked.values.shape == whole.shape
    assert np.array_equal(chunked.values, whole)


@pytest.mark.parametrize("S", [1, 500, montecarlo._STAT_CHUNK, montecarlo._STAT_CHUNK + 1,
                               3 * montecarlo._STAT_CHUNK - 5, 100_003])
def test_sampled_statistics_chunks_are_aligned_and_tall(monkeypatch, S):
    # the fewest chunks of at most _STAT_CHUNK samples, each starting at a
    # multiple of _STAT_ALIGN and of one size n, a multiple of _STAT_ALIGN; only
    # the last one, which ends at S, may be shorter, by less than _STAT_ALIGN
    C, align = montecarlo._STAT_CHUNK, montecarlo._STAT_ALIGN
    calls = []
    batch = FactorSampler.batch

    def recorded(self, start, count):
        calls.append((start, count))
        return batch(self, start, count)

    sampler = FactorSampler(Dims([2]), distribution("gaussian"), 1, 0)
    monkeypatch.setattr(FactorSampler, "batch", recorded)
    out = sampled_statistics([sampler], S, lambda mats: mats[0][:, 0]).values
    monkeypatch.undo()
    assert np.array_equal(out, sampler.batch(0, S)[0][:, 0])
    k, n = len(calls), calls[0][1]
    assert k == -(-S // C) and n <= C
    assert all(start % align == 0 for start, _ in calls)
    assert calls[:-1] == [(j * n, n) for j in range(k - 1)]
    start, count = calls[-1]
    assert start + count == S
    if S > C:
        assert n % align == 0 and n - align < count <= n
        assert k * n - S < k * align  # the overlap
    else:
        assert calls == [(0, S)]


def test_sampled_statistics_rejects_no_samples():
    with pytest.raises(ArgumentError, match="at least 1 sample"):
        sampled_statistics([FactorSampler(Dims([2]), distribution("gaussian"), 1, 0)], 0,
                           lambda mats: mats[0][:, 0])
