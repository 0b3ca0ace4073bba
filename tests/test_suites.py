"""The verification suites on small, fast configurations."""

import dataclasses
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest

from kronchaos import (
    Dims,
    bound_report,
    distribution,
    run_identity_suite,
    verify_ax_tail,
    verify_decoupling,
    verify_gaussian_decoupling,
    verify_hanson_wright,
    verify_main_lower,
    verify_main_upper,
)
from kronchaos import bounds, montecarlo, suites
from kronchaos.montecarlo import EmpiricalMoment
from kronchaos.errors import ArgumentError, DegenerateInputError
from kronchaos.norms import NormOptions
from kronchaos.suites import _norm_config

GAUSS = distribution("gaussian")
RADEMACHER = distribution("rademacher")


def test_identity_suite_passes():
    rep = run_identity_suite(seed=3, instances=10, d_values=(1, 2))
    assert rep["status"] == "pass"
    assert rep["symmetry_exact"]
    assert rep["signed_subset_sum_ok"]
    assert all(e <= 1e-10 for e in rep["max_relative_errors"].values())


def test_decoupling_d1_diagonal_rademacher_trivial():
    D = np.diag([1.0, -2.0, 3.0])
    rep = verify_decoupling(D, Dims([3]), RADEMACHER, p_grid=(2.0,), S=2000, seed=0)
    assert rep["status"] == "pass"
    assert rep["results"][0]["lhs"]["estimate"] == 0.0


def test_decoupling_d1_identity_gaussian_margins():
    rep = verify_decoupling(np.eye(2), Dims([2]), GAUSS, p_grid=(2.0,), S=50_000, seed=1)
    row = rep["results"][0]
    # analytic: LHS = 2, the fully decoupled term is sqrt(2) with weight 4,
    # the squared term is 2 with weight 1
    assert row["lhs"]["estimate"] == pytest.approx(2.0, rel=0.05)
    assert row["rhs"]["estimate"] == pytest.approx(4 * math.sqrt(2) + 2, rel=0.05)
    assert row["verdict"] == "pass"
    assert rep["mean_sanity"]["ok"]


def test_decoupling_d2_random_no_violation():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 4))
    for dist in (GAUSS, RADEMACHER):
        rep = verify_decoupling(A, Dims([2, 2]), dist, p_grid=(2.0, 4.0), S=20_000, seed=2)
        assert rep["status"] in ("pass", "inconclusive-pass")


def test_decoupling_preconditions():
    with pytest.raises(ArgumentError):
        verify_decoupling(np.eye(2), Dims([2]), GAUSS, p_grid=(32.0,), S=2000)
    with pytest.raises(ArgumentError):
        verify_decoupling(np.eye(2), Dims([2]), GAUSS, p_grid=(2.0,), S=100)


def test_main_upper_zero_matrix():
    rep = verify_main_upper(np.zeros((4, 4)), Dims([2, 2]), GAUSS, p_grid=(2.0,), S=2000, seed=0)
    assert rep["status"] == "pass"
    assert rep["constant_estimate"] == 0.0


def test_main_upper_identity_regression():
    # d=1 identity: the functional is sqrt(2p) sqrt(n) + p and the empirical
    # second moment is sqrt(2n); at n=4, p=2 the ratio sits near 0.586 < 1
    rep = verify_main_upper(np.eye(4), Dims([4]), GAUSS, p_grid=(2.0,), S=100_000, seed=1)
    row = rep["results"][0]
    assert row["mp"] == pytest.approx(2 * math.sqrt(2) + 2, rel=1e-12)
    assert 0.5 < row["ratio"] < 0.7
    assert row["ratio"] < 1.0
    assert rep["status"] == "pass"


def test_main_upper_rademacher_stability():
    rng = np.random.default_rng(77)
    A = rng.standard_normal((9, 9))
    ratios = {}
    for seed in (1, 2):
        rep = verify_main_upper(A, Dims([3, 3]), RADEMACHER, p_grid=(2.0, 4.0), S=50_000, seed=seed)
        assert rep["status"] == "pass"
        for row in rep["results"]:
            ratios.setdefault(row["p"], []).append(row["ratio"])
    for vals in ratios.values():
        assert max(vals) / min(vals) < 1.1
        assert all(np.isfinite(v) and v > 0 for v in vals)


def test_main_lower_zero_matrix_skipped(monkeypatch):
    # X^T A X vanishes when the symmetrized array is exactly zero: for an
    # antisymmetric A, and for kron(b - b^T, C), which is not antisymmetric.
    # main-lower used to fail with every ratio 0; main-upper and decoupling
    # reported floating-point round-off as a measurement
    rng = np.random.default_rng(5)
    B, b, C = rng.standard_normal((4, 4)), rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    for A in (np.zeros((4, 4)), B - B.T, np.kron(b - b.T, C)):
        zero = not np.any(A)
        skipped = ("degenerate input: zero matrix skipped" if zero else
                   "degenerate input: symmetrized array is zero, so both sides vanish; skipped")
        rep = verify_main_lower(A, Dims([2, 2]), p_grid=(2.0,), S=2000, seed=0)
        assert rep["status"] == "pass" and rep["flags"] == [skipped]

        rep = verify_main_upper(A, Dims([2, 2]), GAUSS, p_grid=(2.0, 4.0), S=2000, seed=0)
        assert rep["status"] == "pass" and rep["constant_estimate"] == 0.0
        assert rep["results"] == [{"p": 2.0, "ratio": 0.0}, {"p": 4.0, "ratio": 0.0}]
        assert rep["flags"] == ["zero matrix: both sides vanish, ratio defined as 0" if zero else
                                "symmetrized array is zero: both sides vanish, ratio defined as 0"]

        with monkeypatch.context() as m:
            m.setattr(montecarlo.FactorSampler, "batch",
                      lambda *args: pytest.fail("a vanishing input drew a sample"))
            rep = verify_decoupling(A, Dims([2, 2]), GAUSS, p_grid=(2.0,), S=2000, seed=0)
        assert rep["status"] == "pass" and rep["results"] == [] and rep["flags"] == [skipped]


def test_main_lower_identity_positive():
    rep = verify_main_lower(np.eye(4), Dims([2, 2]), p_grid=(2.0, 4.0), S=20_000, seed=3)
    assert rep["status"] == "pass"
    assert rep["constant_estimate"] > 0


def test_main_lower_rank_one_chi_square_anchor():
    # A = v v^T at d=1: the statistic is ||v||^2 (g^2 - 1) whose L_4 norm is
    # ||v||^2 * E[(g^2-1)^4]^(1/4) with E[(g^2-1)^4] = 60
    rng = np.random.default_rng(6)
    v = rng.standard_normal(3)
    A = np.outer(v, v)
    rep = verify_main_lower(A, Dims([3]), p_grid=(4.0,), S=100_000, seed=2)
    lhs = rep["results"][0]["lhs"]["estimate"]
    analytic = float(v @ v) * 60.0 ** 0.25
    assert lhs == pytest.approx(analytic, rel=0.1)
    assert rep["status"] == "pass"


TAIL_SKIPPED = "tail curve skipped: needs equal per-axis dims and a nonzero matrix"


def test_bound_report_of_a_zero_matrix_skips_the_norm_deviation_parts():
    rep = bound_report(np.zeros((4, 4)), Dims([2, 2]), t_grid=(1.0,))
    assert rep["mp_main"] == {"2": 0.0, "4": 0.0, "8": 0.0}
    assert rep["mp_norm"] == rep["mp_kappa"] == {}
    assert rep["tail_curve"] == []
    assert rep["warnings"] == [TAIL_SKIPPED, "zero matrix: norm-deviation functional undefined"]


def test_bound_report_on_unequal_dims_skips_only_the_tail_curve():
    rep = bound_report(np.eye(6), Dims([2, 3]), t_grid=(1.0,))
    assert rep["warnings"] == [TAIL_SKIPPED]
    assert rep["tail_curve"] == []
    assert rep["mp_main"] and rep["mp_norm"] and rep["mp_kappa"]


def test_ax_tail_identity_rademacher_trivial():
    rep = verify_ax_tail(np.eye(4), Dims([2, 2]), RADEMACHER,
                         t_grid=[0.5, 1.0, 2.0], S=10_000, seed=0)
    assert rep["status"] == "pass"
    assert all(r["frequency"] == 0.0 for r in rep["results"])
    # zero hits still leave a positive Wilson upper limit, so the fit is
    # finite and conservative
    assert rep["fitted_constant"] > 0
    assert all(r["dominated"] for r in rep["results"])


def test_ax_tail_flags_a_grid_that_fits_no_constant():
    # every sample exceeds t = 0, but its exponent is 0, so no t bounds the constant
    rep = verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, t_grid=[0.0], S=10_000)
    assert rep["results"][0]["frequency"] == 1.0
    assert rep["fitted_constant"] is None and rep["status"] == "pass"
    assert rep["flags"] == ["no t on the grid has both ci_high > 0 and a positive exponent, "
                            "so no constant is fitted: any constant keeps the bound above "
                            "the curve"]


def test_ax_tail_gaussian_dominated_and_monotone():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 16)) * np.linspace(1, 0.1, 16)  # low-rank-ish profile
    dims = Dims([4, 4])
    fro = np.linalg.norm(A)
    rep = verify_ax_tail(A, dims, GAUSS, t_grid=[0.2 * fro, 0.4 * fro, 0.8 * fro],
                         S=20_000, seed=1)
    assert rep["status"] == "pass"
    freqs = [r["frequency"] for r in rep["results"]]
    assert freqs == sorted(freqs, reverse=True)
    assert all(r["dominated"] for r in rep["results"])
    assert rep["fitted_constant"] is not None and rep["fitted_constant"] > 0


def test_ax_tail_sample_floor():
    with pytest.raises(ArgumentError):
        verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, t_grid=[1.0], S=5000)


def test_gaussian_decoupling_unit_vector_and_exact_values():
    a = np.zeros(4)
    a[0] = 1.0
    rep = verify_gaussian_decoupling(a, p_grid=(2.0,), S=50_000, seed=1)
    row = rep["results"][0]
    assert row["exact_lhs"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert row["exact_rhs_times_2"] == pytest.approx(2.0, rel=1e-12)
    assert row["lhs"]["estimate"] == pytest.approx(math.sqrt(2.0), rel=0.05)
    assert row["verdict"] == "pass"


def test_gaussian_decoupling_zero_vector():
    rep = verify_gaussian_decoupling(np.zeros(4), p_grid=(2.0, 4.0), S=2000, seed=0)
    assert rep["status"] == "pass"


def test_gaussian_decoupling_random():
    a = np.random.default_rng(9).standard_normal(8)
    rep = verify_gaussian_decoupling(a, p_grid=(2.0, 4.0, 8.0), S=50_000, seed=2)
    assert rep["status"] in ("pass", "inconclusive-pass")
    assert all(r["verdict"] != "fail" for r in rep["results"])


def test_gaussian_decoupling_flags_a_separated_violation(monkeypatch):
    base = suites._STREAMS["gaussian-decoupling"]
    streams = []

    def estimates(batch, p_grid):
        # LHS band [9, 11] in row 0 and RHS band [0.9, 1.1] in row 1 of the
        # one batch, on the gbar stream: the LHS band lies above 2 x the RHS band
        streams.append(batch.stream)
        return [[EmpiricalMoment(p, mid, 0.9 * mid, 1.1 * mid) for p in p_grid]
                for mid in (10.0, 1.0)]

    monkeypatch.setattr(suites, "estimate_lp", estimates)
    rep = verify_gaussian_decoupling(np.ones(3), p_grid=(2.0, 4.0), S=500, seed=0)
    assert streams == [base + 1]
    assert [r["verdict"] for r in rep["results"]] == ["fail", "fail"]
    assert rep["status"] == "fail"
    assert rep["flags"] == [f"p={p}: separated violation, LHS band above RHS band"
                            for p in (2, 4)]


def test_hanson_wright_diagonal_rademacher_trivial():
    D = np.diag([1.0, 2.0, -1.0])
    rep = verify_hanson_wright(D, RADEMACHER, t_grid=[0.5, 1.0], S=10_000, seed=0)
    assert rep["status"] == "pass"
    assert all(r["frequency"] == 0.0 for r in rep["results"])
    assert all(r["dominated"] for r in rep["results"])


def test_hanson_wright_gaussian_identity_calibration():
    rep = verify_hanson_wright(np.eye(16), GAUSS, t_grid=[4.0, 8.0, 16.0], S=100_000, seed=5)
    assert rep["status"] == "pass"
    assert 0.05 <= rep["fitted_constant"] <= 0.5


def test_hanson_wright_uniform_sym_random():
    rng = np.random.default_rng(10)
    M = rng.standard_normal((6, 6))
    A = (M + M.T) / 2
    sigma = 2 * np.linalg.norm(A)
    rep = verify_hanson_wright(A, distribution("uniform_sym"),
                               t_grid=[0.5 * sigma, sigma], S=20_000, seed=1)
    assert rep["status"] == "pass"


def test_suite_reports_are_deterministic():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4))
    for make in (
        lambda: verify_decoupling(A, Dims([2, 2]), GAUSS, p_grid=(2.0,), S=2000, seed=5),
        lambda: verify_main_upper(A, Dims([2, 2]), GAUSS, p_grid=(2.0,), S=2000, seed=5),
        lambda: verify_ax_tail(A, Dims([2, 2]), GAUSS, t_grid=[1.0, 2.0], S=10_000, seed=5),
        lambda: run_identity_suite(seed=5, instances=3, d_values=(1, 2)),
    ):
        a = json.dumps(make(), sort_keys=True)
        b = json.dumps(make(), sort_keys=True)
        assert a == b


def test_reports_embed_config():
    rep = verify_main_upper(np.eye(4), Dims([2, 2]), GAUSS, p_grid=(2.0,), S=2000, seed=8)
    cfg = rep["config"]
    assert cfg["seed"] == 8 and cfg["S"] == 2000
    assert cfg["dims"] == [2, 2] and cfg["dist"] == "gaussian"
    assert "version" in cfg and "L" in cfg


@pytest.mark.parametrize("make", [
    lambda: verify_decoupling(np.eye(4), Dims([2, 2]), GAUSS, p_grid=(2.0,), S=2000, seed=0),
    lambda: verify_main_upper(np.eye(4), Dims([2, 2]), GAUSS, p_grid=(2.0,), S=2000, seed=0),
    lambda: verify_main_lower(np.eye(4), Dims([2, 2]), p_grid=(2.0,), S=2000, seed=0),
], ids=["decoupling", "main-upper", "main-lower"])
def test_failed_mean_sanity_is_flagged(monkeypatch, make):
    ok = make()
    assert ok["mean_sanity"]["ok"]
    assert not any("mean sanity" in f for f in ok["flags"])
    shift = suites.chaos_batch
    monkeypatch.setattr(suites, "chaos_batch", lambda A, mats: shift(A, mats) + 3.0)
    rep = make()
    assert not rep["mean_sanity"]["ok"]
    assert any(f.startswith("mean sanity: |mean|") for f in rep["flags"])


def test_norm_config_records_every_value_changing_option():
    # the report cache keys on the config, so a value-changing NormOptions field
    # missing from it would let the cache return a report computed with other options
    fields = {f.name for f in dataclasses.fields(NormOptions)} - {"threads"}
    assert set(_norm_config(NormOptions())) == fields
    assert set(SUITE_CALLS["bound_report"]()["config"]["norm_options"]) == fields


# Every suite on its zero-matrix or smallest-S path.
SUITE_CALLS = {
    "run_identity_suite": lambda: run_identity_suite(instances=1, d_values=(1,)),
    "bound_report": lambda: bound_report(np.eye(2), Dims([2]), t_grid=[1.0]),
    "verify_decoupling": lambda: verify_decoupling(np.eye(2), Dims([2]), GAUSS, (2.0,), S=1000),
    "verify_main_upper": lambda: verify_main_upper(np.zeros((4, 4)), Dims([2, 2]), GAUSS,
                                                   S=100),
    "verify_main_lower": lambda: verify_main_lower(np.zeros((4, 4)), Dims([2, 2]), S=100),
    "verify_ax_tail": lambda: verify_ax_tail(np.eye(2), Dims([2]), GAUSS, [1.0], S=10_000),
    "verify_hanson_wright": lambda: verify_hanson_wright(np.eye(2), GAUSS, [1.0], S=100),
    "verify_gaussian_decoupling": lambda: verify_gaussian_decoupling(np.zeros(2), (2.0,),
                                                                     S=100),
}
BOOTSTRAP_SUITES = {"verify_decoupling", "verify_main_upper", "verify_main_lower",
                    "verify_gaussian_decoupling"}
# parameters recorded under another config key
CONFIG_KEYS = {"A": "input_sha256", "a": "input_sha256", "norm_opts": "norm_options"}


def test_every_suite_has_a_config_check():
    names = {name for name in vars(suites) if name.startswith("verify_")}
    assert names | {"run_identity_suite", "bound_report"} == set(SUITE_CALLS)


@pytest.mark.parametrize("name", sorted(SUITE_CALLS))
def test_suite_config_records_every_parameter(name):
    # the report cache keys on the config, so a parameter missing from it would
    # let the cache return a report computed with another value
    params = inspect.signature(getattr(suites, name)).parameters
    config = SUITE_CALLS[name]()["config"]
    assert {CONFIG_KEYS.get(p, p) for p in params} <= set(config)
    if name in BOOTSTRAP_SUITES:
        assert config["resamples"] == 200
        assert config["bootstrap_blocks"] == 1024


def _no_sampling(monkeypatch):
    def refuse(self, start, count):
        raise AssertionError("a sample was drawn before the argument checks")

    monkeypatch.setattr(montecarlo.FactorSampler, "batch", refuse)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("run", [
    lambda A: verify_decoupling(A, Dims([2, 2]), GAUSS, S=1000),
    lambda A: verify_main_upper(A, Dims([2, 2]), GAUSS, S=1000),
    lambda A: verify_main_lower(A, Dims([2, 2]), S=1000),
    lambda A: verify_ax_tail(A, Dims([2, 2]), GAUSS, [1.0], S=10_000),
    lambda A: verify_hanson_wright(A, GAUSS, [1.0], S=10_000),
    lambda A: verify_gaussian_decoupling(A[0], S=1000),
], ids=["decoupling", "main-upper", "main-lower", "ax-tail", "hanson-wright",
        "gaussian-decoupling"])
def test_monte_carlo_suites_reject_non_finite_input_before_sampling(monkeypatch, run, bad):
    # a nan statistic used to read as an L_p norm of 0 and a pass
    A = np.eye(4)
    A[0, 1] = bad
    _no_sampling(monkeypatch)
    with pytest.raises(ArgumentError, match="non-finite entry"):
        run(A)


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("run", [
    lambda seed: verify_decoupling(np.eye(4), Dims([2, 2]), RADEMACHER, S=1000, seed=seed),
    lambda seed: verify_main_upper(np.eye(4), Dims([2, 2]), GAUSS, S=1000, seed=seed),
    lambda seed: verify_main_lower(np.eye(4), Dims([2, 2]), S=1000, seed=seed),
    lambda seed: verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, [1.0], S=10_000, seed=seed),
    lambda seed: verify_hanson_wright(np.eye(4), GAUSS, [1.0], S=10_000, seed=seed),
    lambda seed: verify_gaussian_decoupling(np.ones(3), S=1000, seed=seed),
], ids=["decoupling", "main-upper", "main-lower", "ax-tail", "hanson-wright",
        "gaussian-decoupling"])
def test_monte_carlo_suites_reject_a_seed_outside_64_bits_first(monkeypatch, run, seed):
    # the sampler masked such a seed to 64 bits: seed 2^64 drew the samples
    # of seed 0 under another config, and no norm or sample may come first
    calls = []
    batch, table_norms = montecarlo.FactorSampler.batch, bounds.table_norms

    def counted(self, start, count):
        calls.append(("batch", count))
        return batch(self, start, count)

    def counted_norms(arrays, partitions, opts):
        calls.append(("norms", len(arrays)))
        return table_norms(arrays, partitions, opts)

    monkeypatch.setattr(montecarlo.FactorSampler, "batch", counted)
    monkeypatch.setattr(bounds, "table_norms", counted_norms)
    with pytest.raises(ArgumentError, match=r"sampling seed must lie in \[0, 2\^64\)"):
        run(seed)
    assert calls == []


@pytest.mark.parametrize("run", [
    lambda: verify_ax_tail(np.random.default_rng(2).standard_normal((8, 8)), Dims([2, 2, 2]),
                           GAUSS, [0.5, 1.0, 2.0, 4.0], S=10_000),
    lambda: verify_hanson_wright(np.random.default_rng(2).standard_normal((8, 8)), GAUSS,
                                 [0.5, 1.0, 2.0, 4.0], S=1000),
], ids=["ax-tail", "hanson-wright"])
def test_tail_suites_compute_the_matrix_norms_once(monkeypatch, run):
    # each t used to take its own SVD for the exponent and another for the bound
    calls = []
    matrix_norms = bounds._matrix_norms

    def counted(A):
        calls.append(np.shape(A))
        return matrix_norms(A)

    # both reach it through their bounds exponent function
    monkeypatch.setattr(bounds, "_matrix_norms", counted)
    assert run()["status"] == "pass"
    assert calls == [(8, 8)]


@pytest.mark.parametrize("run, message", [
    (lambda: verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, [1.0, math.nan], S=10_000),
     "t = nan must be finite"),
    (lambda: verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, [math.inf], S=10_000),
     "t = inf must be finite"),
    (lambda: verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, [-1.0], S=10_000),
     "t = -1.0 must be >= 0"),
    (lambda: verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, [1.0], S=10_000, C_d=0.0),
     "C_d = 0.0 must be > 0"),
    (lambda: verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, [1.0], S=10_000, C_d=math.nan),
     "C_d = nan must be > 0"),
    (lambda: verify_hanson_wright(np.eye(4), GAUSS, [math.nan], S=10_000),
     "t = nan must be finite"),
    (lambda: verify_hanson_wright(np.eye(4), GAUSS, [-math.inf], S=10_000),
     "t = -inf must be finite"),
    (lambda: verify_hanson_wright(np.eye(4), GAUSS, [1.0], S=10_000, c=-2.0),
     "c = -2.0 must be > 0"),
])
def test_tail_suites_check_t_and_constant_before_sampling(monkeypatch, run, message):
    _no_sampling(monkeypatch)
    with pytest.raises(ArgumentError, match=message):
        run()


@pytest.mark.parametrize("run", [
    lambda: verify_ax_tail(np.eye(4), Dims([2, 2]), GAUSS, [], S=10_000),
    lambda: verify_hanson_wright(np.eye(4), GAUSS, [], S=1000),
], ids=["ax-tail", "hanson-wright"])
def test_tail_suites_reject_an_empty_t_grid_before_sampling(monkeypatch, run):
    # an empty grid used to draw every sample and pass with no rows
    _no_sampling(monkeypatch)
    with pytest.raises(ArgumentError, match="t grid must hold at least one t"):
        run()


BIG = np.eye(4) * 1e200  # finite entries whose Frobenius norm overflows
TOO_LARGE = "matrix is too large: its Frobenius norm overflows"


@pytest.mark.parametrize("run, error, message", [
    (lambda: verify_ax_tail(np.zeros((216, 216)), Dims([6, 6, 6]), GAUSS, [1.0, 2.0]),
     DegenerateInputError, "zero matrix"),
    (lambda: verify_ax_tail(np.eye(6), Dims([2, 3]), GAUSS, [1.0]), ArgumentError,
     "equal per-axis dims"),
    (lambda: verify_hanson_wright(np.zeros((8, 8)), GAUSS, [1.0, 2.0]), DegenerateInputError,
     "zero matrix"),
    # ax-tail used to fail only after every sample, hanson-wright to pass with a nan exponent
    (lambda: verify_ax_tail(BIG, Dims([4]), GAUSS, [1.0]), ArgumentError, TOO_LARGE),
    (lambda: verify_hanson_wright(BIG, GAUSS, [1e200], S=1000), ArgumentError, TOO_LARGE),
    # the default t grids used to overflow first and blame t = inf
    (lambda: verify_ax_tail(BIG, Dims([4]), GAUSS), ArgumentError, TOO_LARGE),
    (lambda: verify_hanson_wright(BIG, GAUSS), ArgumentError, TOO_LARGE),
    # the moment suites used to report an infinite mp, limit or exact value
    (lambda: verify_decoupling(BIG, Dims([2, 2]), GAUSS), ArgumentError, TOO_LARGE),
    (lambda: verify_main_upper(BIG, Dims([2, 2]), GAUSS), ArgumentError, TOO_LARGE),
    (lambda: verify_main_lower(BIG, Dims([2, 2])), ArgumentError, TOO_LARGE),
    (lambda: verify_gaussian_decoupling(np.full(4, 1e200)), ArgumentError,
     "vector is too large: its Frobenius norm overflows"),
], ids=["ax-tail-zero", "ax-tail-unequal-dims", "hanson-wright-zero", "ax-tail-overflow",
        "hanson-wright-overflow", "ax-tail-overflow-default-t", "hanson-wright-overflow-default-t",
        "decoupling-overflow", "main-upper-overflow", "main-lower-overflow",
        "gaussian-decoupling-overflow"])
def test_tail_suites_check_the_matrix_before_sampling(monkeypatch, run, error, message):
    # every suite checks its input before any of the S = 100 000 samples or any norm table
    calls = []
    batch = montecarlo.FactorSampler.batch

    def counted(self, start, count):
        calls.append(count)
        return batch(self, start, count)

    def no_table(*args, **kwargs):
        raise AssertionError("norm table built before the input check")

    monkeypatch.setattr(montecarlo.FactorSampler, "batch", counted)
    monkeypatch.setattr(bounds, "table_norms", no_table)
    with pytest.raises(error, match=message):
        run()
    assert calls == []


def test_ax_tail_peak_memory_does_not_grow_with_S_times_N():
    # with whole-batch (S, 216) arrays this call peaked at 267 MB; the chunks
    # keep one chunk's arrays at a time (44 MB)
    A = np.random.default_rng(4).standard_normal((216, 216))
    fro = float(np.linalg.norm(A))
    tracemalloc.start()
    try:
        rep = verify_ax_tail(A, Dims([6, 6, 6]), GAUSS, [0.25 * fro, 0.5 * fro], S=50_000,
                             seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["status"] == "pass"
    assert peak < 100e6, f"peak {peak / 1e6:.1f} MB"


def test_tail_suites_default_t_grids_scale_with_the_frobenius_norm():
    A = np.diag([3.0, 4.0])  # ||A||_F = 5
    assert verify_ax_tail(A, Dims([2]), GAUSS, S=10_000)["config"]["t_grid"] == [1.25, 2.5, 5.0]
    assert verify_hanson_wright(A, GAUSS, S=100)["config"]["t_grid"] == [5.0, 10.0, 20.0]
