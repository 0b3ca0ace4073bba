"""Self-test of the benchmark on tiny inputs.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py

Every workload runs once untraced and once traced at the smallest sizes the
suites accept; the test checks that each metric named in BENCHMARK.json is
printed with its unit, that tracing changes no report and that every wrapped
attribute is restored afterwards.
"""

from __future__ import annotations

import copy
import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import kronchaos  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _bindings() -> dict:
    """Every function or class bound in a kronchaos module, plus FactorSampler.batch."""
    out = {(name, attr): value
           for name, module in sys.modules.items()
           if name == "kronchaos" or name.startswith("kronchaos.")
           for attr, value in vars(module).items()
           if inspect.isfunction(value) or inspect.isclass(value)}
    out["FactorSampler", "batch"] = kronchaos.montecarlo.FactorSampler.__dict__["batch"]
    return out


ORIGINAL = _bindings()


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {(w, trace): run.measure(jobs.jobs_for(w, SEED, jobs.TINY), 0.0, trace, work, [0.1])
            for w in jobs.WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_metric_printed_with_its_unit(measured, workload):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        _, result = measured[workload, trace]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        json.dumps(result)
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
            assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tracing_changes_no_report(measured, workload):
    untraced, _ = measured[workload, False]
    traced, _ = measured[workload, True]
    assert traced["rounds"] == 2 and traced["traced_rounds"] == 1
    assert traced["digests"] == untraced["digests"]
    assert traced["top_layer"] in run.LAYER_GROUPS


def test_gram_table_rows_are_not_main_table_rows(measured):
    # 19 rows for the 9x9 matrix on dims 3,3 and 254 for the 8x8 on 2,2,2; the
    # rectangular 12x9 matrix has a Gram table only
    _, result = measured["bounds-norms", True]
    assert result["metrics"]["bounds.main_norm_table.rows"]["value"] == 19 + 254


def test_wrappers_patch_from_imports_and_are_restored(measured):
    assert _bindings() == ORIGINAL
    tracer = tracing.Tracer()
    tracer.install(tracing.kronchaos_targets())
    try:
        holders = {(getattr(h, "__name__", ""), attr) for h, attr, _ in tracer.patched()}
        for module, attr in (("kronchaos.suites", "estimate_lp"),
                             ("kronchaos.suites", "chaos_batch"),
                             ("kronchaos.suites", "main_norm_table"),
                             ("kronchaos.bounds", "tensor_norm"),
                             ("kronchaos.cli", "main_norm_table"),
                             ("kronchaos.cli", "write_report"),
                             ("kronchaos", "estimate_lp"),
                             ("FactorSampler", "batch")):
            assert (module, attr) in holders
        assert kronchaos.suites.estimate_lp is not ORIGINAL["kronchaos.montecarlo", "estimate_lp"]
    finally:
        tracer.restore()
    assert _bindings() == ORIGINAL


def test_raising_report_is_counted_and_the_run_goes_on(tmp_path):
    def boom():
        raise kronchaos.ArgumentError("injected")

    ok = jobs.jobs_for("tail-sampling", SEED, jobs.TINY)[-1]
    detail, result = run.measure([jobs.Job("boom", boom, jobs._status_gate), ok], 0.0, False,
                                 tmp_path, [0.1])
    assert result["attempted"] == 2 and result["failed"] == 1 and not result["correct"]
    assert detail["failed_reports"] == ["boom"]
    assert detail["digests"][ok.label]


def test_report_with_a_problem_and_a_new_digest_fails_once(tmp_path):
    calls = []

    def drifting():
        calls.append(1)
        return {"status": "fail", "call": len(calls)}, None

    detail, result = run.measure([jobs.Job("drift", drifting, jobs._status_gate)], 0.0, True,
                                 tmp_path, [0.1])
    assert detail["rounds"] == 2
    assert result["attempted"] == 2 and result["failed"] == 2


def _made(workload: str, label: str):
    job = next(j for j in jobs.jobs_for(workload, SEED, jobs.TINY) if j.label == label)
    report, raw = job.make()
    assert job.gate(report, raw) == []
    return job, report, raw


def test_tail_gate_recounts_the_hits():
    job, report, raw = _made("tail-sampling", "hanson-wright-64-rademacher")
    bad = copy.deepcopy(report)
    row = bad["results"][0]
    row["frequency"] += (jobs.RECOUNT_SLACK + 1) / bad["config"]["S"]
    assert [p for p in job.gate(bad, raw) if "recounted" in p]


@pytest.mark.parametrize("method", ["frobenius-exact", "spectral-exact", "als"])
def test_bound_gate_checks_every_kind_of_norm_row(method):
    job, report, raw = _made("bounds-norms", "bounds-12x9-3,3")
    bad = copy.deepcopy(report)
    row = next(r for r in bad["gram_rows"] if r["method"] == method)
    row["value"] *= 1.0 - 1e-5  # an ALS value may exceed its reference, not fall short of it
    assert [p for p in job.gate(bad, raw) if row["partition"] in p]
    del bad["gram_rows"][0]
    assert [p for p in job.gate(bad, raw) if "reference rows" in p]
