"""Golden reports: the exact report.json bytes of one small seeded run per report kind.

Refactors must leave every file under tests/golden/ byte-identical.  A change
that moves report values on purpose re-baselines them with

    PYTHONPATH=src python tests/test_golden_reports.py --write

and records the re-baseline in its change notes.  To see what a change moves,

    PYTHONPATH=src python tests/test_golden_reports.py --diff

prints "identical" per case, or the largest relative difference over its
numeric values and every other value that differs; it exits 1 on a difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kronchaos
from kronchaos import (
    Dims,
    NormOptions,
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
from kronchaos.bounds import compute_bound_report
from kronchaos.cli import _report_json, report_to_csv

GOLDEN = Path(__file__).resolve().with_name("golden")
GAUSS = distribution("gaussian")
RADEMACHER = distribution("rademacher")
D22 = Dims([2, 2])


def _matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    return np.random.default_rng((seed, 0x60_1D)).standard_normal((rows, cols))


def _cli_matrix(n: int, seed: int) -> np.ndarray:
    """The CLI's default random n x n matrix for a seed."""
    return np.random.default_rng((seed, 0x6D6174)).standard_normal((n, n))


def _hw_matrix() -> np.ndarray:
    M = _matrix(5, 5, 6)
    return (M + M.T) / 2


CASES = {
    "identities": lambda: run_identity_suite(seed=5, instances=3, d_values=(1, 2, 3)),
    "decoupling": lambda: verify_decoupling(_matrix(4, 4, 1), D22, GAUSS, (2.0, 4.0),
                                            S=1000, seed=1),
    "decoupling-d3": lambda: verify_decoupling(_matrix(8, 8, 10), Dims([2, 2, 2]), RADEMACHER,
                                               (2.0, 4.0), S=1000, seed=10),
    "main-upper-zero": lambda: verify_main_upper(np.zeros((4, 4)), D22, GAUSS, (2.0, 4.0),
                                                 S=1000, seed=2),
    "main-upper": lambda: verify_main_upper(_matrix(4, 4, 2), D22, RADEMACHER, (2.0, 4.0),
                                            S=1000, seed=2),
    "main-lower-zero": lambda: verify_main_lower(np.zeros((4, 4)), D22, (2.0, 4.0),
                                                 S=1000, seed=3),
    "main-lower": lambda: verify_main_lower(_matrix(4, 4, 3), D22, (2.0, 4.0), S=1000, seed=3),
    "ax-tail": lambda: verify_ax_tail(_matrix(3, 4, 4), D22, GAUSS, [0.5, 1.0, 2.0],
                                      S=10_000, seed=4),
    "hanson-wright": lambda: verify_hanson_wright(_hw_matrix(), RADEMACHER, [1.0, 2.0, 4.0],
                                                  S=10_000, seed=5),
    "gaussian-decoupling": lambda: verify_gaussian_decoupling(_matrix(1, 5, 7)[0],
                                                              (2.0, 4.0, 8.0), S=2000, seed=7),
    "bounds-square": lambda: bound_report(_cli_matrix(4, 8), D22, (2.0, 4.0), (0.5, 1.0),
                                          seed=8),
    "bounds-rectangular": lambda: bound_report(_matrix(3, 4, 9), D22, t_grid=(0.5, 1.0),
                                               seed=9),
}


def render(name: str) -> str:
    return _report_json(CASES[name]())


# The benchmark's bound gate audits the stored moment values with
# BoundReport.recompute_mp_main and recompute_mp_norm.
@pytest.mark.parametrize("A, dims, p_grid, seed", [
    (_cli_matrix(4, 8), D22, (2.0, 4.0), 8),
    (_matrix(3, 4, 9), D22, (2.0, 4.0, 8.0), 9),
    (_matrix(8, 8, 11), Dims([2, 2, 2]), (2.0, 4.0, 8.0), 11),
], ids=["bounds-square", "bounds-rectangular", "square-d3"])
def test_bound_report_recomputes_its_moment_values(A, dims, p_grid, seed):
    report = compute_bound_report(A, dims, p_grid, opts=NormOptions(seed=seed))
    assert list(report.mp_norm_values) == list(p_grid)
    assert list(report.mp_main_values) == (list(p_grid) if A.shape[0] == A.shape[1] else [])
    for stored, recompute in ((report.mp_main_values, report.recompute_mp_main),
                              (report.mp_norm_values, report.recompute_mp_norm)):
        for p, value in stored.items():
            assert recompute(p) == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    assert render(name).encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_report_bytes_do_not_depend_on_blas_threads():
    # the golden files are rendered with OpenBLAS's default thread count; the
    # bootstrap and term products, the ALS block updates and the chunked
    # statistics (ax-tail's 10 000 samples span two chunks) must give the
    # same bytes on one thread
    names = ["decoupling-d3", "bounds-square", "ax-tail"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(kronchaos.__file__).parents[1]),
                                           str(Path(__file__).parent)]))
    code = ("import json; from test_golden_reports import render; "
            f"print(json.dumps([render(name) for name in {names!r}]))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           timeout=600, check=True)
    for name, text in zip(names, json.loads(child.stdout), strict=True):
        assert text.encode() == (GOLDEN / f"{name}.json").read_bytes(), name


CSV_HEADERS = {
    "bounds": "table,I,partition,kappa,method,value,converged",
    "ax-tail": "t,frequency,ci_high,bound,dominated",
    "hanson-wright": "t,frequency,ci_high,bound,dominated",
    "decoupling": "p,lhs,lhs_ci_low,lhs_ci_high,rhs,verdict",
    "gaussian-decoupling": "p,lhs,lhs_ci_low,lhs_ci_high,rhs,verdict",
    "main-upper": "p,lhs,mp,ratio",
    "main-lower": "p,lhs,mp,ratio",
    "identities": "check,max_relative_error",
}


def _result_rows(report: dict) -> int:
    if report["suite"] == "bounds":
        return sum(len(report[key]) for key in
                   ("norm_rows", "gram_rows", "mp_main", "mp_norm", "tail_curve"))
    if report["suite"] == "identities":
        return len(report["max_relative_errors"])
    return len(report["results"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_renders_as_csv(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    header, *lines = report_to_csv(report).splitlines()
    assert header == CSV_HEADERS[report["suite"]]
    assert len(lines) == _result_rows(report)
    assert all(line.count(",") == header.count(",") for line in lines)


def _leaves(node, path: str = ""):
    """(path, value) for every scalar of a decoded report."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(name: str) -> list[str]:
    """Lines describing how the fresh report of a case differs from its golden file."""
    fresh, golden = render(name), (GOLDEN / f"{name}.json").read_text()
    if fresh == golden:
        return ["identical"]
    new, old = dict(_leaves(json.loads(fresh))), dict(_leaves(json.loads(golden)))
    worst, where, lines = 0.0, None, []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, "<missing>"), new.get(path, "<missing>")
        if _is_number(a) and _is_number(b):
            rel = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
            if not rel <= worst:  # a nan difference counts as the largest
                worst, where = rel, path
        elif a != b:
            lines.append(f"  {path}: {a!r} -> {b!r}")
    head = f"largest relative difference {worst:.3g}" + (f" at {where}" if where else "")
    return [head, *lines]


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        same = True
        for name in sorted(CASES):
            lines = diff(name)
            same = same and lines == ["identical"]
            print(f"{name}: {lines[0]}", *lines[1:], sep="\n")
        sys.exit(0 if same else 1)
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write | --diff")
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN / f"{name}.json").write_bytes(render(name).encode())
        print(f"wrote {GOLDEN / name}.json")
