"""Batch command line front end.

Subcommands, each reading --seed, --cache, --formats and the options listed:
  bounds: --matrix --dims --p --t --restarts --L --C-tail
  verify identities: nothing else
  verify decoupling: --matrix --dims --dist --q --p --samples
  verify main-upper: --matrix --dims --dist --q --p --samples --restarts --ceiling
  verify main-lower: --matrix --dims --p --samples --restarts
  verify ax-tail: --matrix --dims --dist --q --t --samples --C-tail
  verify gaussian-decoupling: --vector --p --samples
  verify hanson-wright: --matrix --n --dist --q --t --samples --c
  report (merges cached reports into one summary): --cache only
An option a command does not read is a usage error, and so are --q without
--dist two_point and --n with --matrix.  An option that is not given is not
passed to the library call, so every default is the library's.

Exit codes: 0 pass (or inconclusive pass), 1 separated violation, 2 usage or
input errors.  Reports land in one directory per key under the cache directory
(flag --cache, else $KRONCHAOS_CACHE, else ./kronchaos-cache), which is checked
before any report is computed.  The key hashes the config, which holds a
digest of the input and every option that changes a value, and a fingerprint
of the package source.  report.json is deterministic for a fixed
configuration and seed, and timestamps live in a separate runinfo.json
sidecar.  Files are renamed into place once written, report.json last, so an
interrupted run leaves no truncated report.
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

from .arrayio import load_matrix_csv
from .bounds import main_norm_table
from .errors import KronChaosError
from .montecarlo import FAMILIES, DistributionSpec, distribution
from .norms import NormOptions
from .suites import (
    bound_report,
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

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is a usage error, exit 2
        raise UsageError(message)


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


def _parse_grid(text: str) -> list[float]:
    """A --p or --t grid, which must hold a number."""
    grid = _parse_floats(text)
    if not grid:
        raise UsageError(f"not a finite number: {text!r}")
    return grid


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


def _load_matrix(args, N: int) -> np.ndarray:
    """Matrix from --matrix CSV, or a seeded standard-normal square one of size N."""
    if args.matrix:
        if "n" in args:
            raise UsageError("--n changes nothing when --matrix is given")
        try:
            return load_matrix_csv(Path(args.matrix))
        except (OSError, UnicodeDecodeError) as e:  # missing, a directory or not UTF-8 text
            raise UsageError(f"cannot read matrix file {args.matrix}: {e}") from None
    rng = np.random.default_rng((args.seed, 0x6D6174))
    return rng.standard_normal((N, N))


def _matrix_and_dims(args) -> tuple[np.ndarray, Dims]:
    if args.dims is None:
        raise UsageError(f"{getattr(args, 'suite', args.command)} requires --dims")
    return _load_matrix(args, args.dims.total), args.dims


def _vector(args) -> np.ndarray:
    """--vector, or a seeded standard-normal one of length 8."""
    if args.vector is None:
        return np.random.default_rng((args.seed, 0x766563)).standard_normal(8)
    return np.array(args.vector)


def _dist(args) -> DistributionSpec:
    return distribution(args.dist, **_given(args, ("q",)))


def _given(args, names=("seed", "S", "p_grid", "t_grid", "ceiling", "C_d", "c")) -> dict:
    """The named options a command's parser set, as keyword arguments.  It sets
    only the options its command reads, and a library keyword only if given."""
    return {name: getattr(args, name) for name in names if name in args}


def _cache_dir(args) -> Path:
    """The cache directory; a usage error, before any report is computed, if
    it or its nearest existing ancestor is not a directory."""
    env = os.environ.get("KRONCHAOS_CACHE")
    cache = Path(args.cache or env or "kronchaos-cache")
    existing = next(p for p in (cache, *cache.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"cannot use cache directory {cache}: {existing} is not a directory")
    return cache


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
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:  # an interrupt too: leave no temporary file in the slot
        tmp.unlink(missing_ok=True)
        raise


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
    try:
        slot.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # the cache or the slot is a file
        raise UsageError(f"cannot make cache slot {slot}: {e}") from None
    if "csv" in formats:
        _write_atomic(slot / "report.csv", report_to_csv(report))
    _write_atomic(slot / "runinfo.json", json.dumps(
        {"written_at_unix": time.time(), "version": __version__}) + "\n")
    _write_atomic(target, _report_json(report))
    return slot, True


def _norm_opts(args) -> dict:
    """norm_opts only if --restarts is given; the library's default options take the seed."""
    return {"norm_opts": NormOptions(restarts=args.restarts, seed=args.seed)} if "restarts" in args else {}


def cmd_bounds(args) -> int:
    cache = _cache_dir(args)
    report = bound_report(*_matrix_and_dims(args), **_norm_opts(args),
                          **_given(args, ("seed", "p_grid", "t_grid", "L", "C_tail")))
    slot, fresh = write_report(report, cache, args.formats)
    print(f"bounds: report {'written to' if fresh else 'cached at'} {slot}")
    for w in report["warnings"]:
        print(f"  warning: {w}")
    return EXIT_OK


# Each verify suite: the options it reads besides --seed, --cache and
# --formats, and the library call that makes its report.
VERIFY = {
    "identities": ((), lambda a: run_identity_suite(**_given(a))),
    "decoupling": (("--matrix", "--dims", "--dist", "--q", "--p", "--samples"),
                   lambda a: verify_decoupling(*_matrix_and_dims(a), _dist(a), **_given(a))),
    "main-upper": (("--matrix", "--dims", "--dist", "--q", "--p", "--samples", "--restarts",
                    "--ceiling"),
                   lambda a: verify_main_upper(*_matrix_and_dims(a), _dist(a),
                                               **_norm_opts(a), **_given(a))),
    "main-lower": (("--matrix", "--dims", "--p", "--samples", "--restarts"),
                   lambda a: verify_main_lower(*_matrix_and_dims(a), **_norm_opts(a),
                                               **_given(a))),
    "ax-tail": (("--matrix", "--dims", "--dist", "--q", "--t", "--samples", "--C-tail"),
                lambda a: verify_ax_tail(*_matrix_and_dims(a), _dist(a), **_given(a))),
    "gaussian-decoupling": (("--vector", "--p", "--samples"),
                            lambda a: verify_gaussian_decoupling(_vector(a), **_given(a))),
    "hanson-wright": (("--matrix", "--n", "--dist", "--q", "--t", "--samples", "--c"),
                      lambda a: verify_hanson_wright(
                          _load_matrix(a, Dims([getattr(a, "n", 8)]).total), _dist(a),
                          **_given(a))),
}


def cmd_verify(args) -> int:
    cache = _cache_dir(args)
    report = VERIFY[args.suite][1](args)
    slot, fresh = write_report(report, cache, args.formats)
    status = report["status"]
    print(f"verify {args.suite}: {status} ({'written to' if fresh else 'cached at'} {slot})")
    for flag in report.get("flags", []):
        print(f"  note: {flag}")
    return EXIT_OK if status in ("pass", "inconclusive-pass") else EXIT_VIOLATION


def _summary_row(name: str, report) -> dict:
    """One row of the `report` listing; ValueError if the report is not shaped
    like the ones write_report stores."""
    if not isinstance(report, dict):
        raise ValueError("not a JSON object")
    cfg = report.get("config", {})
    if not isinstance(cfg, dict):
        raise ValueError("config is not a JSON object")
    dims = cfg.get("dims", [])
    if not isinstance(dims, list):
        raise ValueError("config.dims is not a list")
    fitted = report.get("fitted_constant", report.get("constant_estimate"))
    if fitted is not None and (isinstance(fitted, bool) or not isinstance(fitted, (int, float))):
        raise ValueError(f"fitted constant {fitted!r} is not a number")
    return {
        "hash": name,
        "suite": report.get("suite", "?"),
        "status": report.get("status", "-"),
        "dims": ",".join(str(x) for x in dims) or str(cfg.get("n", "")),
        "dist": cfg.get("dist", ""),
        "seed": cfg.get("seed", ""),
        "S": cfg.get("S", ""),
        "constant": "" if fitted is None else f"{fitted:.4g}",
    }


def cmd_report(args) -> int:
    cache = _cache_dir(args)
    try:
        slots = sorted(cache.iterdir())
    except OSError as e:  # missing, or a file
        raise UsageError(f"cannot list cache directory {cache}: {e}") from None
    rows = []
    for slot in slots:
        target = slot / "report.json"
        if not target.is_file():
            continue
        try:
            rows.append(_summary_row(slot.name, json.loads(target.read_text())))
        except (OSError, ValueError) as e:  # json.JSONDecodeError is a ValueError
            print(f"report: skipping corrupt entry {slot.name}: {e}", file=sys.stderr)
    if not rows:
        raise UsageError(f"cache directory {cache} holds no report")
    header = ("hash", "suite", "status", "dims", "dist", "seed", "S", "constant")
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in header}
    print("  ".join(h.ljust(widths[h]) for h in header))
    print("  ".join("-" * widths[h] for h in header))
    for r in rows:
        print("  ".join(str(r[h]).ljust(widths[h]) for h in header))
    return EXIT_OK


# add_argument keywords of every option but bounds' own --L and --C-tail.
OPTIONS = {
    "--seed": dict(type=_nonnegative_int, default=0),
    "--matrix": dict(help="CSV matrix, one row per line"),
    "--dims": dict(type=_parse_dims, help="comma list of per-axis sizes, e.g. 2,2"),
    "--p": dict(dest="p_grid", type=_parse_grid, default=argparse.SUPPRESS, help="moment orders, e.g. 2,4"),
    "--t": dict(dest="t_grid", type=_parse_grid, default=argparse.SUPPRESS, help="tail thresholds, e.g. 1,2"),
    "--restarts": dict(type=int, default=argparse.SUPPRESS),
    "--dist": dict(default="gaussian", choices=list(FAMILIES)),
    "--q": dict(type=_finite, default=argparse.SUPPRESS, help="two_point hit probability"),
    "--samples": dict(dest="S", type=int, default=argparse.SUPPRESS),
    "--ceiling": dict(type=_ceiling, default=argparse.SUPPRESS, help="acceptance ceiling of the ratios (inf: none)"),
    "--C-tail": dict(dest="C_d", type=_finite, default=argparse.SUPPRESS, help="cap for the fitted constant"),
    "--c": dict(type=_finite, default=argparse.SUPPRESS, help="cap for the fitted order-1 constant"),
    "--n": dict(type=int, default=argparse.SUPPRESS, help="size of the random matrix (default 8)"),
    "--vector": dict(type=_parse_floats, help="comma list of coefficients"),
    "--cache": dict(help="cache directory (default $KRONCHAOS_CACHE or ./kronchaos-cache)"),
    "--formats": dict(type=_parse_formats, default="json,csv", help="report formats: json,csv"),
}


def _add_options(parser, names) -> None:
    parser.allow_abbrev = False  # an abbreviation could name an option the command does not read
    for name in ("--seed", *names, "--cache", "--formats"):
        parser.add_argument(name, **OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kronchaos",
                     description="Kronecker-chaos moment/tail bounds and verification suites")
    parser.add_argument("--version", action="version", version=f"kronchaos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="compute bound reports for a matrix")
    _add_options(pb, ("--matrix", "--dims", "--p", "--t", "--restarts"))
    pb.add_argument("--L", type=_finite, default=argparse.SUPPRESS, help="subgaussian-norm bound (>= 1)")
    pb.add_argument("--C-tail", dest="C_tail", type=_finite, default=argparse.SUPPRESS,
                    help="constant knob of the norm-deviation tail bound")
    pb.set_defaults(func=cmd_bounds)

    pv = sub.add_parser("verify", help="run a verification suite")
    suites = pv.add_subparsers(dest="suite", required=True)
    for name, (options, _) in VERIFY.items():
        _add_options(suites.add_parser(name), options)
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
