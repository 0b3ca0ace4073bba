"""Verification suites (exact identities plus seeded Monte Carlo checks) and
the bound report.

Every suite and the bound report return a JSON-serializable report
embedding its full configuration, including a digest of its input array and
every option that changes a value; identical configurations produce
bit-identical reports.
Inequality suites compare confidence bands and only fail on a separated
violation: overlapping bands count as an inconclusive pass, flagged as such,
because the underlying inequalities hold with unknown constants and sampling
noise must not raise false alarms.

Every Monte Carlo suite draws its samples through one path,
``montecarlo.sampled_statistics``: the sampler and the statistic run chunk by
chunk, and only the (S,) or (K, S) statistics are kept, so memory does not
grow with S times the Kronecker length, and the values are those of the whole
batch.  The returned batch carries the stream it was drawn on, which keys its
bootstrap; every L_p band uses montecarlo.RESAMPLES resamples, which the
configs record.  Sample counts, seeds, t grids and constant caps are checked
before any norm or sample is computed, and so is the input array, by the one
gate ``bounds.checked_input``, which also gives the input's Frobenius norm to
each reader of it.  A bad argument is an ArgumentError.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Callable, Sequence

import numpy as np

from .version import __version__
from .arrayio import array_digest
from .bounds import (
    AX_PREFACTOR,
    HW_PREFACTOR,
    TailBound,
    _power,
    ax_exponents,
    check_symmetry,
    check_tail_args,
    checked_input,
    compute_bound_report,
    hw_exponents,
    main_norm_table,
    mp_main,
    symmetrize,
    table_warnings,
    tail_bound,
)
from .errors import ArgumentError, KronChaosError
from .identities import (
    backbone_pairs,
    backbone_term,
    chaos_quadratic,
    coupled_expansion_sides,
    expected_quadratic,
    squared_product_sides,
)
from .montecarlo import (
    RESAMPLES,
    DistributionSpec,
    FactorSampler,
    SampleBatch,
    chaos_batch,
    check_seed,
    distribution,
    estimate_lp,
    estimate_tail,
    norm_batch,
    sampled_statistics,
    semi_decoupled_batch,
)
from .norms import NormOptions
from .partitions import signed_subset_sum
from .tensor import Dims, rearrange_matrix, unrearrange_matrix

P_CAP = 16.0
_P_CAP_NOTE = f"empirical L_p estimates are capped at p = {P_CAP:g}; beyond that the estimator variance is dominated by rare extremes"

# per-suite stream bases for the counter-based sampler
_STREAMS = {
    "decoupling": 0x0100,
    "main-upper": 0x0200,
    "main-lower": 0x0300,
    "ax-tail": 0x0400,
    "gaussian-decoupling": 0x0500,
    "hanson-wright": 0x0600,
}

# Smallest sample count per suite; the empirical estimators need 100.
_MIN_SAMPLES = {"decoupling": 1000, "ax-tail": 10_000}


def _config(suite: str, **kwargs) -> dict:
    cfg = {"suite": suite, "version": __version__}
    cfg.update(kwargs)
    return cfg


def _check_sampling(suite: str, S: int, seed: int) -> None:
    """The sample count and the sampling seed of a Monte Carlo suite, checked
    before any norm or sample is computed."""
    floor = _MIN_SAMPLES.get(suite, 100)
    if S < floor:
        raise ArgumentError(f"{suite} suite needs S >= {floor}, got {S}")
    check_seed(seed)


def _norm_config(opts: NormOptions) -> dict:
    """The NormOptions fields that change a norm value."""
    return {"restarts": opts.restarts, "seed": opts.seed, "max_iter": opts.max_iter,
            "tol": opts.tol}


def _report(config: dict, status: str, flags: list[str],
            sampled: np.ndarray | None = None, **body) -> dict:
    """A Monte Carlo suite report.  With ``sampled``, the centered statistics
    the report rests on, it carries their mean-sanity check, and a failed
    check adds a flag."""
    report = {"suite": config["suite"], "config": config, **body,
              "status": status, "flags": flags}
    if sampled is not None:
        sanity = report["mean_sanity"] = _mean_sanity(sampled)
        if not sanity["ok"]:
            flags.append(f"mean sanity: |mean| = {abs(sanity['mean']):.3g} of the centered "
                         f"statistic exceeds 5 std / sqrt(S) = {sanity['limit']:.3g}")
    return report


def _verdict(lhs_hi: float, lhs_lo: float, rhs_lo: float, rhs_hi: float) -> str:
    """pass / inconclusive / fail for the inequality lhs <= rhs under bands."""
    if lhs_hi <= rhs_lo:
        return "pass"
    if lhs_lo > rhs_hi:
        return "fail"
    return "inconclusive"


def _band_status(results: list[dict], overlap: str) -> tuple[str, list[str]]:
    """Status and flags of an inequality suite from its rows' band verdicts:
    a row whose bands overlap is flagged with ``overlap``, a separated
    violation fails the suite."""
    flags = []
    for r in results:
        if r["verdict"] == "inconclusive":
            flags.append(f"p={r['p']:g}: {overlap}")
        elif r["verdict"] == "fail":
            flags.append(f"p={r['p']:g}: separated violation, LHS band above RHS band")
    verdicts = {r["verdict"] for r in results}
    if "fail" in verdicts:
        return "fail", flags
    return ("pass" if verdicts <= {"pass"} else "inconclusive-pass"), flags


def _mean_sanity(values: np.ndarray) -> dict:
    """Centered statistics must have |mean| <= 5 std / sqrt(S)."""
    S = values.size
    mean = float(values.mean())
    std = float(values.std())
    limit = 5.0 * std / math.sqrt(S)
    return {"mean": mean, "limit": limit, "ok": bool(abs(mean) <= limit or std == 0.0)}


def _check_p_grid(p_grid: Sequence[float], low: float) -> list[float]:
    p_grid = [float(p) for p in p_grid]
    if not p_grid or any(not low <= p <= P_CAP for p in p_grid):
        raise ArgumentError(f"p grid must lie in [{low:g}, {P_CAP:g}], got {p_grid}")
    return p_grid


# ---------------------------------------------------------------------------
# exact identity suite


def run_identity_suite(seed: int = 0, instances: int = 100,
                       d_values: Sequence[int] = (1, 2, 3),
                       tol: float = 1e-10) -> dict:
    """Exact algebraic identity checks on random instances.

    Covers the square-expansion identity, the pairing decomposition of the
    quadratic form, symmetrization (exact symmetry plus chaos preservation),
    the reconstruction of the centered chaos from the coupled terms of the
    decoupling proof, and the signed subset sum.
    """
    rng = np.random.default_rng((int(seed), 0x1DE17))
    checks = {
        "square-expansion": 0.0,
        "pairing-decomposition": 0.0,
        "symmetrize-chaos": 0.0,
        "backbone-reconstruction": 0.0,
    }
    symmetry_exact = True
    for d in d_values:
        for _ in range(instances):
            sizes = [int(rng.integers(2, 4)) for _ in range(d)]
            dims = Dims(sizes)
            N = dims.total
            factors = [rng.standard_normal(n) for n in sizes]

            B = rng.standard_normal(sizes)
            lhs, rhs = squared_product_sides(B, factors)
            checks["square-expansion"] = max(
                checks["square-expansion"], abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

            A = rearrange_matrix(rng.standard_normal((N, N)), dims)
            lhs, rhs = coupled_expansion_sides(A, factors)
            checks["pairing-decomposition"] = max(
                checks["pairing-decomposition"], abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

            sym = symmetrize(A)
            symmetry_exact = symmetry_exact and check_symmetry(sym)
            ca = chaos_quadratic(A, factors)
            cs = chaos_quadratic(sym, factors)
            checks["symmetrize-chaos"] = max(
                checks["symmetrize-chaos"], abs(ca - cs) / max(abs(ca), abs(cs), 1.0))

            total = sum(backbone_term(A, I, J, factors) for I, J in backbone_pairs(d))
            target = ca - expected_quadratic(A)
            checks["backbone-reconstruction"] = max(
                checks["backbone-reconstruction"], abs(total - target) / max(abs(target), 1.0))

    signed_ok = all(
        signed_subset_sum(range(1, m + 1)) == (1 if m == 0 else 0) for m in range(0, 11)
    )
    passed = symmetry_exact and signed_ok and all(e <= tol for e in checks.values())
    return {
        "suite": "identities",
        "config": _config("identities", seed=int(seed), instances=instances,
                          d_values=list(d_values), tol=tol),
        "max_relative_errors": checks,
        "symmetry_exact": bool(symmetry_exact),
        "signed_subset_sum_ok": bool(signed_ok),
        "status": "pass" if passed else "fail",
    }


# ---------------------------------------------------------------------------
# decoupling suite


def verify_decoupling(A: np.ndarray, dims: Dims, dist: DistributionSpec,
                      p_grid: Sequence[float] = (2.0, 4.0), S: int = 100_000,
                      seed: int = 0) -> dict:
    """Empirical check that the centered chaos L_p norm is bounded by the
    weighted sum of semi-decoupled term L_p norms."""
    p_grid = _check_p_grid(p_grid, 1.0)
    _check_sampling("decoupling", S, seed)
    A, _ = checked_input(A)
    d = dims.order
    base = _STREAMS["decoupling"]
    A2d = rearrange_matrix(A, dims)

    lhs_batch = sampled_statistics([FactorSampler(dims, dist, seed, base)], S,
                                   lambda mats: chaos_batch(A, mats))

    pairs = backbone_pairs(d)
    term_batch = sampled_statistics(
        [FactorSampler(dims, dist, seed, base + 1), FactorSampler(dims, dist, seed, base + 2)],
        S, lambda fm, fbm: np.stack([semi_decoupled_batch(A2d, I, J, fm, fbm)
                                     for I, J in pairs]))

    lhs_moments = estimate_lp(lhs_batch, p_grid)
    term_moments = estimate_lp(term_batch, p_grid)
    results = []
    for j, (p, lhs) in enumerate(zip(p_grid, lhs_moments)):
        rhs_est = rhs_lo = rhs_hi = 0.0
        term_rows = []
        for (I, J), moments in zip(pairs, term_moments):
            weight, est = 4.0 ** (d - len(I)), moments[j]
            rhs_est += weight * est.estimate
            rhs_lo += weight * est.ci_low
            rhs_hi += weight * est.ci_high
            term_rows.append({"I": list(I), "J": list(J), "weight": weight,
                              **asdict(est)})
        verdict = _verdict(lhs.ci_high, lhs.ci_low, rhs_lo, rhs_hi)
        results.append({
            "p": p, "lhs": asdict(lhs),
            "rhs": {"estimate": rhs_est, "ci_low": rhs_lo, "ci_high": rhs_hi},
            "terms": term_rows, "verdict": verdict,
        })

    status, flags = _band_status(results, "LHS and RHS confidence bands overlap")
    config = _config("decoupling", seed=int(seed), S=S, dims=list(dims.sizes),
                     dist=dist.label, p_grid=p_grid, resamples=RESAMPLES,
                     p_cap_note=_P_CAP_NOTE, input_sha256=array_digest(A))
    return _report(config, status, flags, lhs_batch.values, results=results)


# ---------------------------------------------------------------------------
# moment sandwich suites


def _moment_ratios(suite: str, A: np.ndarray, dims: Dims, dist: DistributionSpec,
                   p_grid: list[float], S: int, seed: int,
                   norm_opts: NormOptions) -> tuple[list[dict], list[str], np.ndarray]:
    """Per p, the empirical centered-chaos L_p norm of A over its main moment
    functional; returns the result rows, the norm-table warnings and the
    sampled statistics."""
    A2d = rearrange_matrix(A, dims)
    table = main_norm_table(A2d, norm_opts)
    base = _STREAMS[suite]
    batch = sampled_statistics([FactorSampler(dims, dist, seed, base)], S,
                               lambda mats: chaos_batch(A, mats))

    results = []
    for p, lp in zip(p_grid, estimate_lp(batch, p_grid)):
        m = mp_main(A2d, p, dist.bound_L, table=table)
        ratio = lp.estimate / m if m > 0 else 0.0
        results.append({"p": p, "lhs": asdict(lp), "mp": m, "ratio": ratio})
    return results, sorted(set(table_warnings(table))), batch.values


def verify_main_upper(A: np.ndarray, dims: Dims, dist: DistributionSpec,
                      p_grid: Sequence[float] = (2.0, 4.0, 8.0), S: int = 100_000,
                      seed: int = 0, ceiling: float = 50.0,
                      norm_opts: NormOptions | None = None) -> dict:
    """Ratio of the empirical centered-chaos L_p norm to the moment functional.

    The largest ratio estimates the implied upper-bound constant; the suite
    passes when every ratio stays below the configured acceptance ceiling.
    """
    p_grid = _check_p_grid(p_grid, 2.0)
    _check_sampling("main-upper", S, seed)
    A, _ = checked_input(A)
    norm_opts = norm_opts or NormOptions(seed=seed)
    config = _config("main-upper", seed=int(seed), S=S, dims=list(dims.sizes),
                     dist=dist.label, p_grid=p_grid, L=dist.bound_L, ceiling=ceiling,
                     p_cap_note=_P_CAP_NOTE, resamples=RESAMPLES,
                     norm_options=_norm_config(norm_opts), input_sha256=array_digest(A))
    if not np.any(A):
        return _report(config, "pass", ["zero matrix: both sides vanish, ratio defined as 0"],
                       results=[{"p": p, "ratio": 0.0} for p in p_grid],
                       constant_estimate=0.0)

    _power(dist.bound_L, 2 * dims.order, f"the psi2 bound L = {dist.bound_L:g} of {dist.label}")
    results, flags, vals = _moment_ratios("main-upper", A, dims, dist, p_grid, S, seed,
                                          norm_opts)
    c_hat = max(r["ratio"] for r in results)
    return _report(config, "pass" if c_hat <= ceiling else "fail", flags, vals,
                   results=results, constant_estimate=c_hat)


def verify_main_lower(A: np.ndarray, dims: Dims, p_grid: Sequence[float] = (2.0, 4.0, 8.0),
                      S: int = 100_000, seed: int = 0,
                      norm_opts: NormOptions | None = None) -> dict:
    """Ratio table for the lower moment bound, Gaussian factors only.

    The input is symmetrized first (the lower bound needs the pairwise
    symmetry condition); the smallest ratio estimates the implied constant
    and must be strictly positive.
    """
    p_grid = _check_p_grid(p_grid, 2.0)
    _check_sampling("main-lower", S, seed)
    A, _ = checked_input(A)
    norm_opts = norm_opts or NormOptions(seed=seed)
    dist = distribution("gaussian")
    common = dict(seed=int(seed), S=S, dims=list(dims.sizes), p_grid=p_grid,
                  p_cap_note=_P_CAP_NOTE, resamples=RESAMPLES,
                  norm_options=_norm_config(norm_opts), input_sha256=array_digest(A))
    if not np.any(A):
        return _report(_config("main-lower", **common), "pass",
                       ["degenerate input: zero matrix skipped"], results=[])

    sym = symmetrize(rearrange_matrix(A, dims))
    if not check_symmetry(sym):
        raise KronChaosError("symmetrized array failed the exact symmetry check")
    results, flags, vals = _moment_ratios("main-lower", unrearrange_matrix(sym), dims, dist,
                                          p_grid, S, seed, norm_opts)
    c_tilde = min(r["ratio"] for r in results)
    return _report(_config("main-lower", **common, L=dist.bound_L),
                   "pass" if c_tilde > 0.0 else "fail", flags, vals,
                   results=results, constant_estimate=c_tilde)


# ---------------------------------------------------------------------------
# bound report


def bound_report(A: np.ndarray, dims: Dims, p_grid: Sequence[float] = (2.0, 4.0, 8.0),
                 t_grid: Sequence[float] = (), L: float = 1.0, C_tail: float = 1.0,
                 seed: int = 0, norm_opts: NormOptions | None = None) -> dict:
    """The moment functionals and tail curve of ``bounds.compute_bound_report``
    as a report, under a config that records the input digest and every
    option that changes a value."""
    norm_opts = norm_opts or NormOptions(seed=seed)
    result = compute_bound_report(A, dims, p_grid, L, C_tail, t_grid, norm_opts)
    config = _config("bounds", seed=int(seed), dims=list(dims.sizes), p_grid=list(p_grid),
                     t_grid=list(t_grid), L=L, C_tail=C_tail,
                     norm_options=_norm_config(norm_opts), input_sha256=array_digest(A))
    return {"suite": "bounds", "config": config, **result.to_dict()}


# ---------------------------------------------------------------------------
# tail suites


def _tail_fit(config: dict, batch: SampleBatch, t_grid: list[float],
              exponents: list[dict[str, float]], prefactor: float, cap: float | None,
              fields: Callable[[TailBound], dict]) -> dict:
    """Fit the largest c with prefactor exp(-c e(t)) above every empirical upper
    confidence limit, capped at ``cap``, and check that the bound at that c
    dominates.  ``exponents`` holds each t's regime exponents, e(t) the
    largest; ``fields`` gives a row's family fields from its bound at c."""
    fitted = math.inf
    rows = []
    for t, exps in zip(t_grid, exponents, strict=True):
        freq = estimate_tail(batch, t)
        e = max(exps.values())
        if freq.ci_high > 0.0 and e > 0.0:
            fitted = min(fitted, (math.log(prefactor) - math.log(freq.ci_high)) / e)
        rows.append({"t": t, "frequency": freq.frequency, "ci_high": freq.ci_high})

    c_used = min(fitted, cap) if cap is not None else fitted
    finite_c = c_used if math.isfinite(c_used) else 1.0
    for row, exps in zip(rows, exponents):
        tb = tail_bound(row["t"], exps, finite_c, prefactor)
        row.update(fields(tb), bound=tb.value, dominated=bool(row["frequency"] <= tb.value))
    return _report(config, "pass" if all(row["dominated"] for row in rows) else "fail",
                   [] if math.isfinite(fitted) else
                   ["no t on the grid has both ci_high > 0 and a positive exponent, so no "
                    "constant is fitted: any constant keeps the bound above the curve"],
                   results=rows,
                   fitted_constant=None if not math.isfinite(fitted) else fitted,
                   constant_used=finite_c)


def _check_tail_args(t_grid: Sequence[float], cap_name: str, cap: float | None) -> list[float]:
    """The t grid as floats, nonempty, and :func:`bounds.check_tail_args`."""
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ArgumentError("t grid must hold at least one t")
    check_tail_args(t_grid, cap_name, math.inf if cap is None else cap)  # no cap: an infinite one
    return t_grid


def verify_ax_tail(A: np.ndarray, dims: Dims, dist: DistributionSpec,
                   t_grid: Sequence[float] | None = None, S: int = 100_000, seed: int = 0,
                   C_d: float | None = None) -> dict:
    """Empirical norm-deviation tail against the fitted three-regime bound.

    Fits the largest constant knob that keeps the bound above every empirical
    upper confidence limit and reports it; the fitted curve then dominates the
    empirical curve at every grid point by construction.  The default t grid
    is 1/4, 1/2 and 1 times ||A||_F.
    """
    _check_sampling("ax-tail", S, seed)
    A, fro = checked_input(A)
    if t_grid is None:
        t_grid = fro * np.array([0.25, 0.5, 1.0])
    t_grid = _check_tail_args(t_grid, "C_d", C_d)
    # the one SVD of the report, after the checks of A and dims: no sample for a bad input
    exponents = ax_exponents(A, dims, t_grid)
    batch = sampled_statistics([FactorSampler(dims, dist, seed, _STREAMS["ax-tail"])], S,
                               lambda mats: norm_batch(A, mats))

    config = _config("ax-tail", seed=int(seed), S=S, dims=list(dims.sizes),
                     dist=dist.label, t_grid=t_grid, C_d=C_d, input_sha256=array_digest(A))
    return _tail_fit(config, batch, t_grid, exponents, AX_PREFACTOR, C_d,
                     lambda tb: {"exponents": tb.exponents, "regime": tb.regime})


def verify_hanson_wright(A: np.ndarray, dist: DistributionSpec,
                         t_grid: Sequence[float] | None = None, S: int = 100_000,
                         seed: int = 0, c: float | None = None) -> dict:
    """Order-1 baseline: empirical quadratic-form tail vs the two-regime bound,
    by default at t = 1/2, 1 and 2 times 2 ||A||_F, a rough scale of it."""
    _check_sampling("hanson-wright", S, seed)
    A, fro = checked_input(A)
    if t_grid is None:
        t_grid = 2.0 * fro * np.array([0.5, 1.0, 2.0])
    t_grid = _check_tail_args(t_grid, "c", c)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError(f"need a square matrix, got shape {A.shape}")
    dims = Dims([A.shape[0]])
    K = dist.psi2_bound
    # the one SVD of the report; it checks A, so no sample is drawn for a zero matrix
    exponents = hw_exponents(A, t_grid, K, f"the psi2 bound K = {K:g} of {dist.label}")
    batch = sampled_statistics([FactorSampler(dims, dist, seed, _STREAMS["hanson-wright"])], S,
                               lambda mats: chaos_batch(A, mats))

    config = _config("hanson-wright", seed=int(seed), S=S, n=A.shape[0],
                     dist=dist.label, t_grid=t_grid, K=K, c=c, input_sha256=array_digest(A))
    return _tail_fit(config, batch, t_grid, exponents, HW_PREFACTOR, c,
                     lambda tb: {"exponent": tb.exponents[tb.regime]})


# ---------------------------------------------------------------------------
# gaussian decoupling of squares


def verify_gaussian_decoupling(a: np.ndarray, p_grid: Sequence[float] = (2.0, 4.0, 8.0),
                               S: int = 100_000, seed: int = 0) -> dict:
    """Check || sum a_k (g_k^2 - 1) ||_p <= 2 || sum a_k g_k gbar_k ||_p empirically."""
    p_grid = _check_p_grid(p_grid, 1.0)
    _check_sampling("gaussian-decoupling", S, seed)
    a, norm_a = checked_input(np.reshape(a, -1), "vector")
    if a.size == 0:
        raise ArgumentError("gaussian-decoupling needs at least one coefficient")
    dims = Dims([a.size])
    dist = distribution("gaussian")
    base = _STREAMS["gaussian-decoupling"]
    g = FactorSampler(dims, dist, seed, base)
    lhs_batch = sampled_statistics([g], S, lambda x: (x[0] * x[0] - 1.0) @ a)
    # gbar's sampler comes first, so the RHS bootstrap is keyed on its stream
    rhs_batch = sampled_statistics([FactorSampler(dims, dist, seed, base + 1), g], S,
                                   lambda xbar, x: (x[0] * xbar[0]) @ a)

    results = []
    for p, lhs, rhs in zip(p_grid, estimate_lp(lhs_batch, p_grid), estimate_lp(rhs_batch, p_grid)):
        verdict = _verdict(lhs.ci_high, lhs.ci_low, 2.0 * rhs.ci_low, 2.0 * rhs.ci_high)
        row = {"p": p, "lhs": asdict(lhs), "rhs_times_2": 2.0 * rhs.estimate,
               "rhs": asdict(rhs), "verdict": verdict}
        if p == 2.0:
            row["exact_lhs"] = math.sqrt(2.0) * norm_a
            row["exact_rhs_times_2"] = 2.0 * norm_a
        results.append(row)
    status, flags = _band_status(results, "bands overlap")
    config = _config("gaussian-decoupling", seed=int(seed), S=S, n=int(a.size),
                     p_grid=p_grid, p_cap_note=_P_CAP_NOTE, resamples=RESAMPLES,
                     input_sha256=array_digest(a))
    return _report(config, status, flags, results=results)
