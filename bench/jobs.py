"""Report mixes of the benchmark workloads and the correctness gate of each report.

A report is one call of a ``suites.verify_*`` function or of
``bounds.compute_bound_report``, followed by ``cli.write_report`` into an
empty cache directory, as ``kronchaos verify`` and ``kronchaos bounds`` do
without argparse.  Bound reports call the library directly because the
``bounds`` subcommand fails at this commit with a NameError.

The matrices and vectors are fixed: the CLI's default random inputs for seed
0 (and a seeded 12x9 matrix for the rectangular bound report).  The workload
seed is the seed of every Monte Carlo stream and of the ALS restarts.  The
inputs stay fixed because the ALS work of the 8x8 bound report depends
strongly on the matrix, which would swamp the timing of bounds-norms.

Library functions are looked up on their module at call time, so that the
tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from kronchaos import bounds, cli, suites
from kronchaos.montecarlo import FactorSampler, distribution
from kronchaos.norms import NormOptions
from kronchaos.tensor import Dims

WORKLOADS = ("moments-bootstrap", "tail-sampling", "bounds-norms")
FORMATS = ["json", "csv"]  # the CLI's default --formats
GD_TOLERANCE = 0.05  # relative error allowed on the exact p = 2 gaussian-decoupling sides
GD_SAMPLES = 100_000  # gaussian-decoupling samples at every size, so the 5% gate is many sigma wide
MP_TOLERANCE = 1e-12  # relative error allowed between stored and re-summed moment values
TAIL_STREAMS = {"ax-tail": 0x0400, "hanson-wright": 0x0600}  # the suites' sample streams
RECOUNT_CHUNK = 10_000  # samples per chunk of the tail recount
RECOUNT_SLACK = 3  # hits a recount may differ by, for statistics within rounding of a t
EXACT_TOLERANCE = 1e-9  # relative error allowed on an exact norm row against numpy
ALS_TOLERANCE = 1e-6  # relative shortfall allowed on an ALS norm row against the reference
REFERENCE = Path(__file__).with_name("bounds_reference.json")


@dataclass(frozen=True)
class Sizes:
    """Sample counts of one workload instance."""

    moment_samples: int = 100_000  # decoupling and main-lower
    tail_samples: int = 100_000  # ax-tail and hanson-wright


FULL = Sizes()
# The smallest sizes the suites accept (decoupling S >= 1000, tail S >= 10000).
TINY = Sizes(moment_samples=1000, tail_samples=10_000)


@dataclass
class Job:
    label: str
    make: Callable[[], tuple[dict, object]]  # (report for write_report, raw result for the gate)
    gate: Callable[[dict, object], list[str]]


@dataclass
class Outcome:
    label: str
    wall_s: float
    cpu_s: float
    digest: str
    problems: list[str]
    verdicts: int
    inconclusive: int


INPUT_SEED = 0  # the CLI seed whose default random inputs every report uses


def _cli_matrix(n: int) -> np.ndarray:
    """The CLI's default random n x n matrix for INPUT_SEED."""
    return np.random.default_rng((INPUT_SEED, 0x6D6174)).standard_normal((n, n))


def _cli_vector(n: int) -> np.ndarray:
    """The CLI's default gaussian-decoupling coefficients for INPUT_SEED."""
    return np.random.default_rng((INPUT_SEED, 0x766563)).standard_normal(n)


def _non_finite(value, path="report") -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path} = {value}"]
    return []


def _status_gate(report: dict, raw) -> list[str]:
    return ["status is fail"] if report.get("status") == "fail" else []


def _gd_gate(a: np.ndarray):
    norm_a = float(np.linalg.norm(a))

    def gate(report: dict, raw) -> list[str]:
        problems = _status_gate(report, raw)
        row = next(r for r in report["results"] if r["p"] == 2.0)
        for name, got, exact in (("lhs", row["lhs"]["estimate"], math.sqrt(2.0) * norm_a),
                                 ("rhs_times_2", row["rhs_times_2"], 2.0 * norm_a)):
            if abs(got - exact) > GD_TOLERANCE * exact:
                problems.append(f"p=2 {name} {got!r} is off {exact!r} by more than 5%")
        return problems

    return gate


def _ax_statistic(A: np.ndarray, dims: Dims, mats: list[np.ndarray]) -> np.ndarray:
    """||A X||_2 - ||A||_F per sample, contracting A's column axes with the factors
    one by one instead of forming the Kronecker vectors."""
    letters = "abcdefghijklmnopqr"[:dims.order]
    spec = f"m{letters}," + ",".join("s" + c for c in letters) + "->sm"
    Y = np.einsum(spec, A.reshape(A.shape[0], *dims.sizes), *mats, optimize=True)
    return np.linalg.norm(Y, axis=1) - np.linalg.norm(A)


def _hw_statistic(A: np.ndarray, dims: Dims, mats: list[np.ndarray]) -> np.ndarray:
    """x^T A x - trace(A) per sample."""
    return np.einsum("si,ij,sj->s", mats[0], A, mats[0], optimize=True) - np.trace(A)


def _tail_gate(suite: str, A: np.ndarray, dims: Dims, dist, S: int, seed: int):
    """Status and domination, and every row's hit count recounted from the
    suite's sample stream in chunks, with numpy in place of the library's
    Kronecker and statistic code."""
    statistic = _ax_statistic if suite == "ax-tail" else _hw_statistic

    def gate(report: dict, raw) -> list[str]:
        problems = _status_gate(report, raw) + [
            f"t={row['t']!r} not dominated" for row in report["results"] if not row["dominated"]]
        sampler = FactorSampler(dims, dist, seed, TAIL_STREAMS[suite])
        t_grid = np.array([row["t"] for row in report["results"]])
        hits = np.zeros(len(t_grid), dtype=np.int64)
        for start in range(0, S, RECOUNT_CHUNK):
            v = np.abs(statistic(A, dims, sampler.batch(start, min(RECOUNT_CHUNK, S - start))))
            hits += np.count_nonzero(v[:, None] > t_grid[None, :], axis=0)
        for row, recount in zip(report["results"], hits):
            got = round(row["frequency"] * S)
            if abs(got - recount) > RECOUNT_SLACK:
                problems.append(f"t={row['t']!r}: {got} hits reported, {recount} recounted")
        return problems

    return gate


def _reduced(T: np.ndarray, I: list[int]) -> tuple[np.ndarray, list[int]]:
    """Partial trace of an order-2d array over the axis pairs (l, l + d), l in I,
    with the 1-based labels of the axes left."""
    d = T.ndim // 2
    labels = list(range(1, 2 * d + 1))
    for l in I:
        T = np.trace(T, axis1=labels.index(l), axis2=labels.index(l + d))
        labels = [a for a in labels if a not in (l, l + d)]
    return T, labels


def _spectral(T: np.ndarray, labels: list[int], rows: list[int]) -> float:
    """Largest singular value of T with the axes `rows` merged into rows."""
    perm = [labels.index(a) for a in rows] + [i for i, a in enumerate(labels) if a not in rows]
    n = math.prod(T.shape[labels.index(a)] for a in rows)
    return float(np.linalg.svd(T.transpose(perm).reshape(n, -1), compute_uv=False)[0])


def _norm_rows_problems(table: str, rows: list[dict], T: np.ndarray | None,
                        reference: dict[str, float]) -> list[str]:
    """Rows of a norm table against numpy (exact rows) and the reference (ALS rows).

    An ALS value must reach the reference value within ALS_TOLERANCE and stay
    below the spectral norm of every coarsening into one block and the rest.
    """
    keys = [f"{row['I']}/{row['partition']}" for row in rows]
    if sorted(keys) != sorted(reference):
        return [f"{table}: rows {len(keys)} differ from the {len(reference)} reference rows"]
    problems = []
    for key, row in zip(keys, rows):
        I = [int(x) for x in row["I"].strip("{}").split()]
        blocks = [[int(x) for x in b.split()] for b in row["partition"].split("|")]
        R, labels = _reduced(T, I)
        value = row["value"]
        if row["method"] == "frobenius-exact":
            exact = float(np.linalg.norm(R))
        elif row["method"] == "spectral-exact":
            exact = _spectral(R, labels, blocks[0])
        else:
            upper = min(_spectral(R, labels, b) for b in blocks)
            if not reference[key] * (1 - ALS_TOLERANCE) <= value <= upper * (1 + EXACT_TOLERANCE):
                problems.append(f"{table} {key}: ALS value {value!r} outside "
                                f"[{reference[key]!r}, {upper!r}]")
            continue
        if abs(value - exact) > EXACT_TOLERANCE * exact:
            problems.append(f"{table} {key}: {row['method']} value {value!r}, numpy {exact!r}")
    return problems


def _bound_gate(label: str, A: np.ndarray, dims: Dims):
    """Finite values, moment values that re-sum from the tables, and every norm row
    checked by _norm_rows_problems against the matrix's rearrangement (main table)
    and its Gram matrix's (gram table)."""
    shape = dims.sizes + dims.sizes
    arrays = {"gram_rows": (A.T @ A).reshape(shape)}
    if A.shape[0] == A.shape[1]:
        arrays["norm_rows"] = A.reshape(shape)

    def gate(report: dict, raw) -> list[str]:
        problems = _non_finite(report)
        for name, stored, recompute in (("mp_main", raw.mp_main_values, raw.recompute_mp_main),
                                        ("mp_norm", raw.mp_norm_values, raw.recompute_mp_norm)):
            for p, value in stored.items():
                again = recompute(p)
                if abs(again - value) > MP_TOLERANCE * abs(value):
                    problems.append(f"{name}(p={p:g}) stored {value!r}, recomputed {again!r}")
        reference = json.loads(REFERENCE.read_text())[label]
        for table in ("norm_rows", "gram_rows"):  # a rectangular matrix has no norm_rows
            problems += _norm_rows_problems(table, report[table], arrays.get(table),
                                            reference[table])
        return problems

    return gate


def _verify(fn_name: str, *args, **kwargs):
    return lambda: (getattr(suites, fn_name)(*args, **kwargs), None)


def _bound_job(label: str, A: np.ndarray, dims: Dims, seed: int, source: str) -> Job:
    p_grid, t_grid, L, C_tail = [2.0, 4.0, 8.0], [1.0, 2.0], 1.0, 1.0

    def make():
        opts = NormOptions(seed=seed, threads=1)
        result = bounds.compute_bound_report(A, dims, p_grid, L, C_tail, t_grid, opts)
        config = {  # the config cmd_bounds writes
            "suite": "bounds", "version": cli.__version__, "matrix": source,
            "dims": list(dims.sizes), "p_grid": p_grid, "t_grid": t_grid,
            "L": L, "C_tail": C_tail, "seed": seed, "restarts": opts.restarts, "threads": 1,
        }
        return {"suite": "bounds", "config": config, **result.to_dict()}, result

    return Job(label, make, _bound_gate(label, A, dims))


def jobs_for(workload: str, seed: int, sizes: Sizes = FULL) -> list[Job]:
    """The fixed list of reports that makes up one round of a workload;
    `seed` drives the Monte Carlo streams and the ALS restarts."""
    gaussian = distribution("gaussian")
    if workload == "moments-bootstrap":
        S = sizes.moment_samples
        a = _cli_vector(8)
        opts = NormOptions(seed=seed, threads=1)
        return [
            Job("decoupling-2,2-gaussian",
                _verify("verify_decoupling", _cli_matrix(4), Dims([2, 2]), gaussian,
                        (2.0, 4.0), S, seed), _status_gate),
            Job("decoupling-2,2,2-rademacher",
                _verify("verify_decoupling", _cli_matrix(8), Dims([2, 2, 2]),
                        distribution("rademacher"), (2.0, 4.0), S, seed), _status_gate),
            Job("gaussian-decoupling-8",
                _verify("verify_gaussian_decoupling", a, (2.0, 4.0, 8.0),
                        GD_SAMPLES, seed), _gd_gate(a)),
            Job("main-lower-3,3",
                _verify("verify_main_lower", _cli_matrix(9), Dims([3, 3]),
                        (2.0, 4.0, 8.0), S, seed, norm_opts=opts), _status_gate),
        ]
    if workload == "tail-sampling":
        S = sizes.tail_samples
        # the CLI draws the same 64x64 matrix for ax-tail 4,4,4 and hanson-wright n=64
        A6, A4 = _cli_matrix(216), _cli_matrix(64)
        fro6, fro4 = float(np.linalg.norm(A6)), float(np.linalg.norm(A4))
        sigma = 2.0 * fro4
        dims6, dims4, two_point = Dims([6, 6, 6]), Dims([4, 4, 4]), distribution("two_point", 0.25)
        rademacher = distribution("rademacher")
        return [
            Job("ax-tail-6,6,6-gaussian",
                _verify("verify_ax_tail", A6, dims6, gaussian,
                        [0.25 * fro6, 0.5 * fro6, fro6], S, seed, None),
                _tail_gate("ax-tail", A6, dims6, gaussian, S, seed)),
            Job("ax-tail-4,4,4-two_point",
                _verify("verify_ax_tail", A4, dims4, two_point,
                        [0.25 * fro4, 0.5 * fro4, fro4], S, seed, None),
                _tail_gate("ax-tail", A4, dims4, two_point, S, seed)),
            Job("hanson-wright-64-rademacher",
                _verify("verify_hanson_wright", A4, rademacher,
                        [0.5 * sigma, sigma, 2.0 * sigma], S, seed, None),
                _tail_gate("hanson-wright", A4, Dims([64]), rademacher, S, seed)),
        ]
    if workload == "bounds-norms":
        rect = np.random.default_rng((INPUT_SEED, 0x72656374)).standard_normal((12, 9))
        return [
            _bound_job("bounds-9x9-3,3", _cli_matrix(9), Dims([3, 3]), seed,
                       f"random-normal(seed={INPUT_SEED})"),
            _bound_job("bounds-12x9-3,3", rect, Dims([3, 3]), seed,
                       f"random-normal-12x9(seed={INPUT_SEED})"),
            _bound_job("bounds-8x8-2,2,2", _cli_matrix(8), Dims([2, 2, 2]), seed,
                       f"random-normal(seed={INPUT_SEED})"),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def run_job(job: Job, work: Path) -> Outcome:
    """Produce one report into a fresh cache directory, time it and gate it.

    A report that raises, in the library or in its gate, is a failed report;
    the run goes on.
    """
    cache = Path(tempfile.mkdtemp(dir=work))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    wall = cpu = None
    try:
        report, raw = job.make()
        slot, fresh = cli.write_report(report, cache, FORMATS)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems = job.gate(report, raw)
        if not fresh:
            problems.append("write_report did not write into the empty cache")
        digest = hashlib.sha256((slot / "report.json").read_bytes()).hexdigest()
        verdicts = [r["verdict"] for r in report.get("results", []) if "verdict" in r]
    except Exception as e:  # the boundary that keeps the run going
        traceback.print_exc()
        if wall is None:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems, digest, verdicts = [f"raised {type(e).__name__}: {e}"], "", []
    finally:
        shutil.rmtree(cache)
    return Outcome(job.label, wall, cpu, digest, problems, len(verdicts),
                   verdicts.count("inconclusive"))
