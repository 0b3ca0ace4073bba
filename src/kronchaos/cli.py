"""Batch command line front end.

Subcommands:
  bounds   compute the moment functionals and tail curve for a matrix
  verify   run a verification suite (identities, decoupling, main-upper,
           main-lower, ax-tail, gaussian-decoupling, hanson-wright)
  report   merge cached JSON reports into one text summary

Exit codes: 0 pass (or inconclusive pass), 1 separated violation, 2 usage or
input errors.  Reports land in one directory per key under the cache directory
(flag --cache, else $KRONCHAOS_CACHE, else ./kronchaos-cache).  The key hashes
the config, which holds a digest of the input and every option that changes a
value, and a fingerprint of the package source.  report.json is deterministic
for a fixed configuration and seed, and timestamps live in a separate
runinfo.json sidecar.  Files are renamed into place once written, report.json
last, so an interrupted run leaves no truncated report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .arrayio import array_digest, load_matrix_csv
from .bounds import compute_bound_report, main_norm_table
from .errors import KronChaosError
from .montecarlo import FAMILIES, distribution
from .norms import NormOptions
from .suites import (
    run_identity_suite,
    verify_ax_tail,
    verify_decoupling,
    verify_gaussian_decoupling,
    verify_hanson_wright,
    verify_main_lower,
    verify_main_upper,
)
from .tensor import Dims
from .version import __version__

SUITES = ("identities", "decoupling", "main-upper", "main-lower", "ax-tail",
          "gaussian-decoupling", "hanson-wright")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _finite(text: str) -> float:
    """A finite float; nan, inf and non-numbers are usage errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise UsageError(f"not a finite number: {text!r}")
    return x


def _ceiling(text: str) -> float:
    """A finite ceiling, or inf for none; nan, -inf and non-numbers are usage errors."""
    try:
        if float(text) == math.inf:
            return math.inf
    except ValueError:
        pass
    return _finite(text)


def _nonnegative_int(text: str) -> int:
    """A base-10 integer >= 0; negatives and non-integers are usage errors."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise UsageError(f"not a non-negative integer: {text!r}")
    return n


def _parse_floats(text: str) -> list[float]:
    return [_finite(tok) for tok in text.split(",") if tok.strip()]


def _parse_formats(text: str) -> list[str]:
    formats = text.split(",")
    if not set(formats) <= {"json", "csv"}:
        raise UsageError(f"unknown report format in {text!r}; choose from json, csv")
    return formats


def _parse_dims(text: str) -> Dims:
    try:
        return Dims(int(tok) for tok in text.split(",") if tok.strip())
    except (ValueError, KronChaosError) as e:
        raise UsageError(f"bad dims {text!r}: {e}") from None


def _load_matrix(args, dims: Dims, seed: int) -> tuple[np.ndarray, str]:
    """Matrix from --matrix CSV, or a seeded standard-normal square one of size N."""
    if args.matrix:
        path = Path(args.matrix)
        if not path.exists():
            raise UsageError(f"matrix file not found: {path}")
        A = load_matrix_csv(path)
        return A, str(path)
    N = dims.total
    rng = np.random.default_rng((seed, 0x6D6174))
    return rng.standard_normal((N, N)), f"random-normal(seed={seed})"


def _cache_dir(args) -> Path:
    if args.cache:
        return Path(args.cache)
    env = os.environ.get("KRONCHAOS_CACHE")
    return Path(env) if env else Path("kronchaos-cache")


@functools.lru_cache(maxsize=None)
def _code_fingerprint() -> str:
    """sha256 over the package's source files, computed on first use."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _config_hash(config: dict) -> str:
    """Cache slot key: the config and the code that produced the report."""
    canonical = json.dumps(config, sort_keys=True) + _code_fingerprint()
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_csv(report: dict) -> str:
    """Flat CSV rows for a report; columns depend on the suite family."""
    suite = report.get("suite", "")
    lines = []
    if suite == "bounds":
        lines.append("table,I,partition,kappa,method,value,converged")
        for table, key in (("main", "norm_rows"), ("gram", "gram_rows")):
            for row in report.get(key, []):
                lines.append("{},{I},{partition},{kappa},{method},{value!r},{converged}".format(table, **row))
        for key in ("mp_main", "mp_norm"):
            for p, v in report.get(key, {}).items():
                lines.append(f"{key},,,,,{v!r},p={p}")
        for row in report.get("tail_curve", []):
            lines.append("tail,,,,{regime},{bound!r},t={t}".format(**row))
    elif suite in ("ax-tail", "hanson-wright"):
        lines.append("t,frequency,ci_high,bound,dominated")
        for row in report["results"]:
            lines.append(f"{row['t']},{row['frequency']!r},{row['ci_high']!r},"
                         f"{row.get('bound', '')!r},{row['dominated']}")
    elif suite in ("decoupling", "gaussian-decoupling"):
        lines.append("p,lhs,lhs_ci_low,lhs_ci_high,rhs,verdict")
        for row in report["results"]:
            rhs = row["rhs"]["estimate"] if suite == "decoupling" else row["rhs_times_2"]
            lines.append(f"{row['p']},{row['lhs']['estimate']!r},{row['lhs']['ci_low']!r},"
                         f"{row['lhs']['ci_high']!r},{rhs!r},{row['verdict']}")
    elif suite in ("main-upper", "main-lower"):
        lines.append("p,lhs,mp,ratio")
        for row in report["results"]:
            lhs = row["lhs"]["estimate"] if "lhs" in row else ""  # zero matrix: p and ratio only
            lines.append(f"{row['p']},{lhs},{row.get('mp', '')},{row['ratio']!r}")
    elif suite == "identities":
        lines.append("check,max_relative_error")
        for name, err in report["max_relative_errors"].items():
            lines.append(f"{name},{err!r}")
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    """Write a file durably under a temporary name, then rename it into place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def write_report(report: dict, cache: Path, formats: list[str]) -> tuple[Path, bool]:
    """Store a report under its config hash; existing reports are immutable.

    report.json is written last, so a slot that has one is complete.  A
    cached slot gains the requested formats it lacks, rendered from its
    report.json.
    """
    slot = cache / _config_hash(report["config"])
    target = slot / "report.json"
    if target.exists():
        if "csv" in formats and not (slot / "report.csv").exists():
            _write_atomic(slot / "report.csv", report_to_csv(json.loads(target.read_text())))
        return slot, False
    slot.mkdir(parents=True, exist_ok=True)
    if "csv" in formats:
        _write_atomic(slot / "report.csv", report_to_csv(report))
    _write_atomic(slot / "runinfo.json", json.dumps(
        {"written_at_unix": time.time(), "version": __version__}) + "\n")
    _write_atomic(target, _report_json(report))
    return slot, True


def _norm_opts(args, seed: int) -> NormOptions:
    return NormOptions(restarts=args.restarts, seed=seed, threads=args.threads)


def cmd_bounds(args) -> int:
    if not args.dims:
        raise UsageError("bounds requires --dims")
    dims = _parse_dims(args.dims)
    seed = args.seed
    A, source = _load_matrix(args, dims, seed)
    p_grid = _parse_floats(args.p) if args.p else [2.0, 4.0, 8.0]
    t_grid = _parse_floats(args.t) if args.t else []

    config = {
        "suite": "bounds", "version": __version__, "matrix": source,
        "input_sha256": array_digest(A),
        "dims": list(dims.sizes), "p_grid": p_grid, "t_grid": t_grid,
        "L": args.L, "C_tail": args.C_tail, "seed": seed,
        "restarts": args.restarts, "threads": args.threads,
    }
    result = compute_bound_report(A, dims, p_grid, args.L, args.C_tail, t_grid,
                                  _norm_opts(args, seed))
    report = {"suite": "bounds", "config": config, **result.to_dict()}
    slot, fresh = write_report(report, _cache_dir(args), args.formats)
    print(f"bounds: report {'written to' if fresh else 'cached at'} {slot}")
    for w in report["warnings"]:
        print(f"  warning: {w}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suite = args.suite
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    seed = args.seed
    S = args.samples
    p_grid = _parse_floats(args.p) if args.p else None
    t_grid = _parse_floats(args.t) if args.t else None

    if suite == "identities":
        report = run_identity_suite(seed=seed)
    elif suite == "gaussian-decoupling":
        if args.vector:
            a = np.array(_parse_floats(args.vector))
        else:
            a = np.random.default_rng((seed, 0x766563)).standard_normal(8)
        report = verify_gaussian_decoupling(a, p_grid or (2.0, 4.0, 8.0), S, seed)
    elif suite == "hanson-wright":
        dist = distribution(args.dist, args.q)
        A, _ = _load_matrix(args, Dims([args.n]), seed)
        sigma = 2.0 * np.linalg.norm(A)  # rough scale of the centered statistic
        report = verify_hanson_wright(A, dist, t_grid or [0.5 * sigma, sigma, 2.0 * sigma],
                                      S, seed, args.c)
    else:
        if not args.dims:
            raise UsageError(f"suite {suite} requires --dims")
        dims = _parse_dims(args.dims)
        dist = distribution(args.dist, args.q)
        if suite == "main-lower" and args.dist != "gaussian":
            raise UsageError("main-lower is defined for gaussian factors only")
        A, _ = _load_matrix(args, dims, seed)
        if suite == "decoupling":
            report = verify_decoupling(A, dims, dist, p_grid or (2.0, 4.0), S, seed)
        elif suite == "main-upper":
            report = verify_main_upper(A, dims, dist, p_grid or (2.0, 4.0, 8.0), S, seed,
                                       ceiling=args.ceiling, norm_opts=_norm_opts(args, seed))
        elif suite == "main-lower":
            report = verify_main_lower(A, dims, p_grid or (2.0, 4.0, 8.0), S, seed,
                                       norm_opts=_norm_opts(args, seed))
        else:  # ax-tail
            fro = float(np.linalg.norm(A))
            report = verify_ax_tail(A, dims, dist,
                                    t_grid or [0.25 * fro, 0.5 * fro, fro],
                                    S, seed, args.C_tail)

    slot, fresh = write_report(report, _cache_dir(args), args.formats)
    status = report["status"]
    print(f"verify {suite}: {status} ({'written to' if fresh else 'cached at'} {slot})")
    for flag in report.get("flags", []):
        print(f"  note: {flag}")
    return EXIT_OK if status in ("pass", "inconclusive-pass") else EXIT_VIOLATION


def cmd_report(args) -> int:
    cache = _cache_dir(args)
    if not cache.exists():
        print(f"report: cache directory {cache} does not exist", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for slot in sorted(cache.iterdir()):
        target = slot / "report.json"
        if not target.is_file():
            continue
        try:
            report = json.loads(target.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"report: skipping corrupt entry {slot.name}: {e}", file=sys.stderr)
            continue
        cfg = report.get("config", {})
        fitted = report.get("fitted_constant", report.get("constant_estimate"))
        rows.append({
            "hash": slot.name,
            "suite": report.get("suite", "?"),
            "status": report.get("status", "-"),
            "dims": ",".join(str(x) for x in cfg.get("dims", [])) or str(cfg.get("n", "")),
            "dist": cfg.get("dist", ""),
            "seed": cfg.get("seed", ""),
            "S": cfg.get("S", ""),
            "constant": "" if fitted is None else f"{fitted:.4g}",
        })
    if not rows:
        print("report: cache is empty", file=sys.stderr)
        return EXIT_USAGE
    header = ("hash", "suite", "status", "dims", "dist", "seed", "S", "constant")
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in header}
    print("  ".join(h.ljust(widths[h]) for h in header))
    print("  ".join("-" * widths[h] for h in header))
    for r in rows:
        print("  ".join(str(r[h]).ljust(widths[h]) for h in header))
    constants = [r for r in rows if r["constant"]]
    if constants:
        print("\nfitted-constant history:")
        for r in constants:
            print(f"  {r['suite']:<22} seed={r['seed']!s:<6} -> {r['constant']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kronchaos",
                                     description="Kronecker-chaos moment/tail bounds and verification suites")
    parser.add_argument("--version", action="version", version=f"kronchaos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--matrix", help="CSV matrix, one row per line")
        p.add_argument("--dims", help="comma list of per-axis sizes, e.g. 2,2")
        p.add_argument("--p", help="comma list of moment orders")
        p.add_argument("--t", help="comma list of tail thresholds")
        p.add_argument("--seed", type=_nonnegative_int, default=0)
        p.add_argument("--restarts", type=int, default=32)
        p.add_argument("--threads", type=int, default=1,
                       help="changes nothing (the ALS restarts run as one batch); "
                            "kept until the next change to the benchmark")
        p.add_argument("--cache", help="cache directory (default $KRONCHAOS_CACHE or ./kronchaos-cache)")
        p.add_argument("--formats", type=_parse_formats, default="json,csv",
                       help="report formats: json,csv")

    pb = sub.add_parser("bounds", help="compute bound reports for a matrix")
    common(pb)
    pb.add_argument("--L", type=_finite, default=1.0, help="subgaussian-norm bound (>= 1)")
    pb.add_argument("--C-tail", dest="C_tail", type=_finite, default=1.0,
                    help="constant knob of the norm-deviation tail bound")
    pb.set_defaults(func=cmd_bounds)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    common(pv)
    pv.add_argument("--dist", default="gaussian",
                    choices=list(FAMILIES))
    pv.add_argument("--q", type=_finite, default=0.25, help="two_point hit probability")
    pv.add_argument("--samples", type=int, default=100_000)
    pv.add_argument("--ceiling", type=_ceiling, default=50.0,
                    help="acceptance ceiling for main-upper ratios (inf: none)")
    pv.add_argument("--C-tail", dest="C_tail", type=_finite, default=None,
                    help="cap for the fitted ax-tail constant")
    pv.add_argument("--c", type=_finite, default=None, help="cap for the fitted order-1 constant")
    pv.add_argument("--n", type=int, default=8, help="size of the random order-1 matrix")
    pv.add_argument("--vector", help="comma list for gaussian-decoupling coefficients")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("report", help="merge cached reports into a summary table")
    pr.add_argument("--cache")
    pr.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # the type= parsers raise UsageError
        return args.func(args)
    except (UsageError, KronChaosError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
