"""Benchmark of the kronchaos report pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload moments-bootstrap --seed 1 --seconds 30 --trace 0

A run produces the workload's fixed set of reports (one round) again and
again for about --seconds seconds, at least once.  --seed drives the random
streams of the reports; every round repeats the same inputs.  Every report is
gated for correctness and its report.json digest must repeat in every round.
The last line of standard output is one JSON object: with --trace 0 it carries
the end-to-end metrics (medians over rounds), with --trace 1 the per-layer
metrics of traced rounds, which alternate with untraced ones.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # import timings per run: this process plus SETUP_SAMPLES - 1 fresh ones
IMPORT_CODE = ("import time; t = time.perf_counter(); import kronchaos, kronchaos.cli, "
               "kronchaos.bounds; print(time.perf_counter() - t)")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds() -> list[float]:
    """Time the kronchaos import here and in SETUP_SAMPLES - 1 fresh interpreters."""
    t = time.perf_counter()
    import kronchaos, kronchaos.bounds, kronchaos.cli  # noqa: E401,F401
    samples = [time.perf_counter() - t]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_rounds(jobs, seconds: float, trace: bool, work: Path):
    """Rounds of `jobs` until the next one would end after `seconds`, at least
    one.  With tracing, rounds alternate untraced and traced, and at least one
    pair runs."""
    import tracing
    from jobs import run_job

    tracer = tracing.Tracer()
    targets = tracing.kronchaos_targets() if trace else []
    rounds = []  # (traced, [Outcome])
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.install(targets)
        try:
            outcomes = [run_job(job, work) for job in jobs]
        finally:
            tracer.restore()
        rounds.append((traced, outcomes))
        longest = max(longest, time.perf_counter() - t0)
        if traced or not trace:
            if time.perf_counter() - start + longest * (2 if trace else 1) > seconds:
                return rounds, tracer


def report_problems(rounds) -> list[tuple[int, str, str]]:
    """(round, label, problem) for every problem of a report, its own gate's
    and a digest that differs from the first round's."""
    first: dict[str, str] = {}
    out = []
    for i, (traced, outcomes) in enumerate(rounds):
        for o in outcomes:
            out.extend((i, o.label, p) for p in o.problems)
            if not o.digest:
                continue
            ref = first.setdefault(o.label, o.digest)
            if o.digest != ref:
                out.append((i, o.label, f"{'traced' if traced else 'untraced'} digest "
                            f"{o.digest[:12]} differs from {ref[:12]}"))
    return out


def round_totals(outcomes) -> tuple[float, float]:
    return sum(o.wall_s for o in outcomes), sum(o.cpu_s for o in outcomes)


LAYER_GROUPS = {  # the layers whose self time the workloads are meant to be dominated by
    "bootstrap": ("montecarlo.estimate_lp",),
    "sampling+statistics": ("montecarlo.sampler", "montecarlo.kronecker_batch",
                            "montecarlo.chaos_batch", "montecarlo.norm_batch",
                            "montecarlo.semi_decoupled_batch"),
    "tensor_norm": ("norms.tensor_norm.als", "norms.tensor_norm.exact", "norms.tensor_norm.other"),
}


def layer_groups(tracer, traced_rounds: int) -> dict[str, float]:
    """Self seconds per traced round of each layer group and of everything else traced."""
    times = tracer.self_times()
    out = {g: sum(times.get(n, 0.0) for n in names) for g, names in LAYER_GROUPS.items()}
    grouped = {n for names in LAYER_GROUPS.values() for n in names}
    out["other"] = sum(v for n, v in times.items() if n not in grouped)
    return {g: v / traced_rounds for g, v in out.items()}


def layer_metrics(tracer, rounds) -> dict:
    """Per-layer metrics per traced round, every name present even when 0."""
    traced = [o for t, o in rounds if t]
    untraced = [o for t, o in rounds if not t]
    times = tracer.self_times()
    all_outcomes = [o for _, outs in rounds for o in outs]
    verdicts = sum(o.verdicts for o in all_outcomes)

    def s(name):
        return times.get(name, 0.0) / len(traced)

    def c(name):
        return tracer.counts.get(name, 0) / len(traced)

    def wall(group):
        return statistics.median(round_totals(outs)[0] for outs in group)

    m = {}
    for name in ("estimate_lp", "sampler", "kronecker_batch", "chaos_batch", "norm_batch",
                 "semi_decoupled_batch", "estimate_tail"):
        m[f"montecarlo.{name}.s"] = (s(f"montecarlo.{name}"), "s")
    for name in ("estimate_lp.calls", "estimate_lp.gathers", "sampler.calls", "sampler.uniforms"):
        m[f"montecarlo.{name}"] = (c(f"montecarlo.{name}"), "count")
    m["montecarlo.statistic.flops_computed"] = (c("montecarlo.statistic.flops_computed"), "flop")
    m["norms.tensor_norm.calls"] = (c("norms.tensor_norm.calls"), "count")
    m["norms.tensor_norm.als.calls"] = (c("norms.tensor_norm.als.calls"), "count")
    m["norms.tensor_norm.als.s"] = (s("norms.tensor_norm.als"), "s")
    m["norms.tensor_norm.exact.s"] = (s("norms.tensor_norm.exact"), "s")
    for name in ("restarts", "iterations", "unconverged"):
        m[f"norms.als.{name}"] = (c(f"norms.als.{name}"), "count")
    for name in ("main_norm_table", "gram_norm_table", "build_reduced_array", "symmetrize",
                 "mp", "tail_bound_ax"):
        m[f"bounds.{name}.s"] = (s(f"bounds.{name}"), "s")
    m["bounds.main_norm_table.rows"] = (c("bounds.main_norm_table.rows"), "count")
    m["suites.self_s"] = (s("suites"), "s")
    m["suites.inconclusive_frac"] = (
        sum(o.inconclusive for o in all_outcomes) / verdicts if verdicts else 0.0, "fraction")
    m["cli.write_report.s"] = (s("cli.write_report"), "s")
    m["cli.write_report.bytes"] = (c("cli.write_report.bytes"), "byte")
    m["trace.wall_s"] = (wall(traced), "s")
    m["trace.overhead_s"] = (wall(traced) - wall(untraced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def measure(jobs, seconds: float, trace: bool, work: Path, setup: list[float]):
    """Run the rounds; return (detail record, result object for the last line)."""
    rounds, tracer = run_rounds(jobs, seconds, trace, work)
    outcomes = [o for _, outs in rounds for o in outs]
    problems = report_problems(rounds)
    failed = len({(i, label) for i, label, _ in problems})  # each failing report once
    for i, label, p in problems:
        print(f"FAIL round {i} {label}: {p}", file=sys.stderr)
    verdicts = sum(o.verdicts for o in outcomes)
    untraced = [outs for t, outs in rounds if not t]
    walls = [round_totals(outs)[0] for outs in untraced]
    cpus = [round_totals(outs)[1] for outs in untraced]
    detail = {
        "rounds": len(rounds), "traced_rounds": sum(t for t, _ in rounds),
        "round_wall_s": walls, "round_cpu_s": cpus, "setup_samples_s": setup,
        "report_wall_s": {o.label: [x.wall_s for outs in untraced for x in outs
                                    if x.label == o.label] for o in untraced[0]},
        "digests": {o.label: o.digest for o in rounds[0][1]},
        "fail_frac": failed / len(outcomes),
        "inconclusive_frac": sum(o.inconclusive for o in outcomes) / verdicts if verdicts else None,
        "failed_reports": sorted({label for _, label, _ in problems}),
    }
    if trace:
        groups = layer_groups(tracer, detail["traced_rounds"])
        detail["layer_self_s"] = groups
        detail["top_layer"] = max(groups, key=groups.get)
        metrics = layer_metrics(tracer, rounds)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kronchaos" / "__init__.py").is_file():
        print(f"error: no kronchaos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = import_seconds()
    import kronchaos
    if Path(kronchaos.__file__).resolve().parent != SRC / "kronchaos":
        print(f"error: imported kronchaos from {kronchaos.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from jobs import WORKLOADS, jobs_for

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        detail, result = measure(jobs_for(args.workload, args.seed), args.seconds,
                                 bool(args.trace), work, setup)
    finally:
        shutil.rmtree(work)
    print(json.dumps({"workload": args.workload, "env": env, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
