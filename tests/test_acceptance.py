"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces its runtime budget.  Inequality constants are unspecified
by the theory, so the Monte Carlo criteria are property-based: band-separated
violations fail, calibration outputs are recorded, never asserted as truth.
"""

import json
import math
import time

import numpy as np
import pytest

from kronchaos import (
    Dims,
    NormOptions,
    Partition,
    all_partitions,
    check_gram_norm_bounds,
    distribution,
    estimate_lp,
    estimate_tail,
    matricize,
    rearrange_matrix,
    run_identity_suite,
    verify_ax_tail,
    verify_decoupling,
    verify_diagonal_restriction,
    verify_gaussian_decoupling,
    verify_hanson_wright,
    verify_main_lower,
    verify_merge_split,
    verify_reduction_lift,
)
from kronchaos import norms
from kronchaos.bounds import build_reduced_array
from kronchaos.cli import main as cli_main
from kronchaos.montecarlo import FactorSampler, SampleBatch, chaos_batch
from kronchaos.partitions import partitions_into
from kronchaos.tensor import as_partial

GAUSS = distribution("gaussian")
RADEMACHER = distribution("rademacher")
S_FULL = 100_000


def _announce(idx, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx} {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")


def test_acceptance_1_exact_identities():
    t0 = time.monotonic()
    rep = run_identity_suite(seed=2026, instances=100, d_values=(1, 2, 3), tol=1e-10)
    elapsed = time.monotonic() - t0
    worst = max(rep["max_relative_errors"].values())
    ok = rep["status"] == "pass" and elapsed < 30
    _announce(1, "exact-identities", ok, f"max rel err {worst:.2e}", elapsed, 30)
    assert rep["status"] == "pass", rep
    assert elapsed < 30


def test_acceptance_2_norm_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2202)
    tight = NormOptions(restarts=8, max_iter=3000, tol=1e-13, seed=1)

    # forced alternating maximization against the exact singular value
    worst_svd = 0.0
    for _ in range(50):
        sizes = tuple(int(rng.integers(2, 5)) for _ in range(3))
        T = rng.standard_normal(sizes)
        rows = sorted(rng.choice([1, 2, 3], size=1, replace=False).tolist())
        cols = [a for a in (1, 2, 3) if a not in rows]
        exact = float(np.linalg.svd(matricize(T, rows, cols), compute_uv=False)[0])
        als = norms._als_batches([as_partial(T)], [Partition([rows, cols])], tight)[0].value
        worst_svd = max(worst_svd, abs(als - exact) / exact)
    assert worst_svd <= 1e-8, worst_svd

    # inequality harnesses on random order-4 arrays, d=2, n <= 4
    opts = NormOptions(restarts=16, seed=2)
    slack = 1e-6
    for i in range(50):
        n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        dims = Dims([n1, n2])
        N = dims.total
        M = rng.standard_normal((N, N))
        A2d = rearrange_matrix(M, dims)

        parts = [P for P in all_partitions(range(1, 5)) if P.kappa >= 2]
        P = parts[int(rng.integers(0, len(parts)))]
        pair = tuple(rng.choice(P.kappa, size=2, replace=False).tolist())
        ms = verify_merge_split(A2d, P, pair, opts, slack=slack)
        assert ms.passed, (i, ms)

        I = [l for l in (1, 2) if rng.integers(0, 2)]
        dr = verify_diagonal_restriction(A2d, I, P, opts, slack=slack)
        assert dr.passed, (i, I, dr)

        G = rng.standard_normal((N, N))
        B2d = rearrange_matrix(G.T @ G, dims)
        I_red = [1] if rng.integers(0, 2) else [2]
        ground = build_reduced_array(B2d, I_red).axes
        P_red = partitions_into(ground, int(rng.integers(1, 3)))[0]
        rl = verify_reduction_lift(B2d, I_red, P_red, opts, slack=slack)
        assert rl.passed, (i, rl)

    # reduced-Gram norm inequalities need equal per-axis dims
    for i in range(50):
        n = int(rng.integers(2, 5))
        dims = Dims([n, n])
        A = rng.standard_normal((dims.total, dims.total))
        I = ([], [1], [2])[int(rng.integers(0, 3))]
        ground = build_reduced_array(rearrange_matrix(A.T @ A, dims), I).axes
        kappa = int(rng.integers(1, min(3, len(ground)) + 1))
        P = partitions_into(ground, kappa)[0]
        gb = check_gram_norm_bounds(A, dims, I, P, opts, slack=slack)
        assert gb.passed, (i, I, gb)

    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    _announce(2, "norm-suite", ok, f"worst svd gap {worst_svd:.2e}", elapsed, 60)
    assert elapsed < 60


def test_acceptance_3_analytic_mc_anchors():
    t0 = time.monotonic()
    n = 4
    vals = chaos_batch(np.eye(n), FactorSampler(Dims([n]), GAUSS, 3001, 0).batch(0, S_FULL))
    l2 = estimate_lp(SampleBatch(3001, 0, vals), [2.0])[0].estimate
    target = math.sqrt(2 * n)
    l2_ok = abs(l2 - target) / target <= 0.05

    normals = FactorSampler(Dims([1]), GAUSS, 3002, 0).batch(0, S_FULL)[0].ravel()
    freq = estimate_tail(SampleBatch(3002, 0, normals), 1.96).frequency
    tail_ok = abs(freq - 0.05) <= 0.005

    D = np.diag(np.random.default_rng(3003).standard_normal(8))
    zvals = chaos_batch(D, FactorSampler(Dims([8]), RADEMACHER, 3003, 0).batch(0, S_FULL))
    zero_ok = bool(np.all(zvals == 0.0))

    elapsed = time.monotonic() - t0
    ok = l2_ok and tail_ok and zero_ok and elapsed < 60
    _announce(3, "analytic-mc-anchors", ok,
              f"L2 {l2:.4f} vs {target:.4f}, tail {freq:.4f}, diag-zero {zero_ok}", elapsed, 60)
    assert l2_ok and tail_ok and zero_ok
    assert elapsed < 60


def test_acceptance_4_decoupling_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(4004)
    runs = []
    for dist, count in ((GAUSS, 3), (RADEMACHER, 2)):
        for _ in range(count):
            runs.append((Dims([4]), rng.standard_normal((4, 4)), dist))
    for dist, count in ((GAUSS, 3), (RADEMACHER, 2)):
        for _ in range(count):
            runs.append((Dims([2, 2]), rng.standard_normal((4, 4)), dist))
    assert len(runs) == 10

    violations = 0
    inconclusive = 0
    for k, (dims, A, dist) in enumerate(runs):
        rep = verify_decoupling(A, dims, dist, p_grid=(2.0, 4.0), S=S_FULL, seed=100 + k)
        if rep["status"] == "fail":
            violations += 1
        elif rep["status"] == "inconclusive-pass":
            inconclusive += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 180
    _announce(4, "decoupling-suite", ok,
              f"10 matrices, {violations} violations, {inconclusive} inconclusive", elapsed, 180)
    assert violations == 0
    assert elapsed < 180


def test_acceptance_5_moment_sandwich():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    dims = Dims([3, 3])
    seeds = (1, 2, 3)
    per_seed: dict[int, list[float]] = {s: [] for s in seeds}
    for _ in range(10):
        A = rng.standard_normal((9, 9))
        for seed in seeds:
            rep = verify_main_lower(A, dims, p_grid=(2.0, 4.0, 8.0), S=S_FULL, seed=seed)
            assert rep["status"] == "pass"
            per_seed[seed].extend(r["ratio"] for r in rep["results"])

    all_ratios = [v for vals in per_seed.values() for v in vals]
    r_lo, r_hi = min(all_ratios), max(all_ratios)
    interval_ok = r_lo > 0 and r_hi / r_lo <= 50

    # the recorded calibration interval must be reproducible across seeds
    los = [min(per_seed[s]) for s in seeds]
    his = [max(per_seed[s]) for s in seeds]
    lo_dev = max(abs(v - np.mean(los)) / np.mean(los) for v in los)
    hi_dev = max(abs(v - np.mean(his)) / np.mean(his) for v in his)
    stable_ok = lo_dev <= 0.15 and hi_dev <= 0.15

    elapsed = time.monotonic() - t0
    ok = interval_ok and stable_ok and elapsed < 180
    _announce(5, "moment-sandwich", ok,
              f"calibrated ratio interval [{r_lo:.4f}, {r_hi:.4f}], spread {r_hi / r_lo:.2f}, "
              f"endpoint devs {lo_dev * 100:.1f}%/{hi_dev * 100:.1f}%", elapsed, 180)
    assert interval_ok, (r_lo, r_hi)
    assert stable_ok, (lo_dev, hi_dev)
    assert elapsed < 180


def test_acceptance_6_tail_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(6006)
    dims = Dims([3, 3])
    A = rng.standard_normal((9, 9))
    fro = float(np.linalg.norm(A))
    t_grid = [0.25 * fro, 0.5 * fro, fro]

    ax_fits = []
    for seed in (1, 2, 3):
        rep = verify_ax_tail(A, dims, GAUSS, t_grid, S=S_FULL, seed=seed)
        assert rep["status"] == "pass"
        assert all(r["dominated"] for r in rep["results"])
        ax_fits.append(rep["fitted_constant"])
    ax_ok = max(ax_fits) / min(ax_fits) <= 1.2 / 0.8

    M = rng.standard_normal((8, 8))
    H = (M + M.T) / 2
    sigma = 2.0 * float(np.linalg.norm(H))
    hw_fits = []
    for seed in (1, 2, 3):
        rep = verify_hanson_wright(H, GAUSS, [0.5 * sigma, sigma, 2 * sigma], S=S_FULL, seed=seed)
        assert rep["status"] == "pass"
        assert all(r["dominated"] for r in rep["results"])
        hw_fits.append(rep["fitted_constant"])
    hw_ok = max(hw_fits) / min(hw_fits) <= 1.2 / 0.8

    calib = verify_hanson_wright(np.eye(16), GAUSS, [4.0, 8.0, 16.0], S=S_FULL, seed=5)
    calib_ok = 0.05 <= calib["fitted_constant"] <= 0.5

    elapsed = time.monotonic() - t0
    ok = ax_ok and hw_ok and calib_ok and elapsed < 120
    _announce(6, "tail-suite", ok,
              f"ax fits {[f'{c:.3f}' for c in ax_fits]}, hw fits {[f'{c:.3f}' for c in hw_fits]}, "
              f"chi-square calibration {calib['fitted_constant']:.3f}", elapsed, 120)
    assert ax_ok and hw_ok and calib_ok
    assert elapsed < 120


def test_acceptance_7_gaussian_square_decoupling():
    t0 = time.monotonic()
    rng = np.random.default_rng(7007)
    violations = 0
    exact_ok = True
    for k in range(20):
        a = rng.standard_normal(8)
        rep = verify_gaussian_decoupling(a, p_grid=(2.0, 4.0, 8.0), S=S_FULL, seed=200 + k)
        if rep["status"] == "fail":
            violations += 1
        row2 = next(r for r in rep["results"] if r["p"] == 2.0)
        norm_a = float(np.linalg.norm(a))
        exact_ok = exact_ok and abs(row2["exact_lhs"] - math.sqrt(2) * norm_a) < 1e-12
        exact_ok = exact_ok and abs(row2["lhs"]["estimate"] - math.sqrt(2) * norm_a) / (math.sqrt(2) * norm_a) < 0.05
        exact_ok = exact_ok and abs(row2["rhs_times_2"] - 2 * norm_a) / (2 * norm_a) < 0.05
    elapsed = time.monotonic() - t0
    ok = violations == 0 and exact_ok and elapsed < 60
    _announce(7, "gaussian-square-decoupling", ok,
              f"20 vectors, {violations} violations, exact p=2 anchors {exact_ok}", elapsed, 60)
    assert violations == 0 and exact_ok
    assert elapsed < 60


def test_acceptance_8_determinism(tmp_path):
    t0 = time.monotonic()
    argv = ["verify", "decoupling", "--dims", "2,2", "--dist", "gaussian",
            "--p", "2,4", "--samples", "20000", "--seed", "11"]
    assert cli_main(argv + ["--cache", str(tmp_path / "A")]) == 0
    assert cli_main(argv + ["--cache", str(tmp_path / "B")]) == 0
    slot_a = next((tmp_path / "A").iterdir())
    slot_b = next((tmp_path / "B").iterdir())
    same = (slot_a / "report.json").read_bytes() == (slot_b / "report.json").read_bytes()
    # timestamps live in the sidecar, outside the determinism contract
    sidecars = (slot_a / "runinfo.json").exists() and (slot_b / "runinfo.json").exists()
    report = json.loads((slot_a / "report.json").read_text())
    no_timestamps = "written_at_unix" not in json.dumps(report)
    elapsed = time.monotonic() - t0
    ok = same and sidecars and no_timestamps
    _announce(8, "determinism", ok, f"byte-identical {same}", elapsed, 60)
    assert same and sidecars and no_timestamps
