"""Command line contract: exit codes, caching, determinism, report merging."""

import argparse
import json
import math
import re

import numpy as np
import pytest

from kronchaos import Dims, NormOptions, bound_report, cli
from kronchaos.arrayio import load_matrix_csv, save_matrix_csv
from kronchaos.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, _report_json, build_parser, main


@pytest.fixture
def id4(tmp_path):
    path = tmp_path / "id4.csv"
    save_matrix_csv(path, np.eye(4))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_bounds_identity(tmp_path, id4, capsys):
    cache = tmp_path / "cache"
    code = run("bounds", "--matrix", id4, "--dims", "2,2", "--p", "2,4,8",
               "--cache", cache)
    assert code == EXIT_OK
    slot = next(cache.iterdir())
    report = json.loads((slot / "report.json").read_text())
    assert set(report["mp_main"]) == {"2", "4", "8"}
    assert report["mp_main"]["2"] > 0
    assert (slot / "report.csv").exists()
    assert (slot / "runinfo.json").exists()
    # m_p table rows present for every proper reduction subset
    eyes = {row["I"] for row in report["norm_rows"]}
    assert eyes == {"{}", "{1}", "{2}"}


def test_bounds_missing_file(tmp_path):
    assert run("bounds", "--matrix", tmp_path / "nope.csv", "--dims", "2,2",
               "--cache", tmp_path / "c") == EXIT_USAGE


def test_bounds_dims_mismatch(tmp_path, id4, capsys):
    assert run("bounds", "--matrix", id4, "--dims", "2,3",
               "--cache", tmp_path / "c") == EXIT_USAGE
    rect = tmp_path / "rect.csv"
    save_matrix_csv(rect, np.ones((4, 3)))
    assert run("bounds", "--matrix", rect, "--dims", "2,2",
               "--cache", tmp_path / "c") == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all("does not match N =" in line for line in err)
    assert not (tmp_path / "c").exists()


def test_bounds_bad_dims_string(tmp_path, id4):
    assert run("bounds", "--matrix", id4, "--dims", "2,x",
               "--cache", tmp_path / "c") == EXIT_USAGE


def test_bounds_missing_dims(tmp_path, id4, capsys):
    assert run("bounds", "--matrix", id4, "--cache", tmp_path / "c") == EXIT_USAGE
    assert "error: bounds requires --dims" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ("bounds", "--dims", "2,2"),
    ("verify", "main-upper", "--dims", "2,2", "--samples", "2000"),
    ("verify", "main-lower", "--dims", "2,2", "--samples", "2000"),
])
def test_zero_restarts_is_usage_error(tmp_path, capsys, argv):
    assert run(*argv, "--restarts", "0", "--cache", tmp_path / "c") == EXIT_USAGE
    assert "error: restarts must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ("bounds", "--dims", "2,2", "--p", "nan,4"),
    ("bounds", "--dims", "2,2", "--L", "nan"),
    ("bounds", "--dims", "2,2", "--t", "nan"),
    ("bounds", "--dims", "2,2", "--C-tail", "inf"),
    ("verify", "ax-tail", "--dims", "2,2", "--t", "nan"),
    ("verify", "ax-tail", "--dims", "2,2", "--C-tail=-inf"),
    ("verify", "hanson-wright", "--c", "inf"),
    ("verify", "decoupling", "--dims", "2,2", "--q", "nan"),
    ("verify", "gaussian-decoupling", "--vector", "1,x"),
    ("bounds", "--dims", "2,2", "--p", ","),
    ("bounds", "--dims", "2,2", "--t", ","),
    ("verify", "main-upper", "--dims", "2,2", "--p", ","),
    ("verify", "ax-tail", "--dims", "2,2", "--t", ","),
    ("verify", "hanson-wright", "--t", ""),
])
def test_non_finite_number_is_usage_error(tmp_path, capsys, argv):
    assert run(*argv, "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: not a finite number: ")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv,row", [
    (("bounds", "--dims", "2"), "1,nan"),
    (("bounds", "--dims", "2"), "1,inf"),
    (("bounds", "--dims", "2"), "1,,2"),
    (("bounds", "--dims", "2"), "1,x"),
    (("bounds", "--dims", "2"), "1,0x1p2000"),
    (("verify", "decoupling", "--dims", "2", "--samples", "1000"), "1,nan"),
    (("verify", "main-upper", "--dims", "2", "--samples", "200", "--p", "2"), "1,inf"),
    (("verify", "hanson-wright", "--samples", "200"), "1,inf"),
])
def test_non_finite_matrix_entry_is_usage_error(tmp_path, capsys, argv, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"{row}\n0,1\n")
    assert run(*argv, "--matrix", path, "--cache", tmp_path / "c") == EXIT_USAGE
    bad = row.split(",")[1]
    assert capsys.readouterr().err == f"error: {path}: not a finite number: {bad!r}\n"
    assert not (tmp_path / "c").exists()


MAIN_UPPER_SMALL = ("verify", "main-upper", "--dims", "2", "--samples", "200", "--p", "2",
                    "--restarts", "2")


@pytest.mark.parametrize("argv", [
    ("bounds", "--dims", "2", "--seed", "-1"),
    ("verify", "identities", "--seed", "-2"),
    (*MAIN_UPPER_SMALL, "--seed", "-1"),
    ("verify", "identities", "--seed", "1.5"),
])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    assert run(*argv, "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: not a non-negative integer: ")
    assert not (tmp_path / "c").exists()


def test_sampling_seed_outside_64_bits_is_usage_error(tmp_path, capsys, id4):
    # masked to 64 bits, this seed drew the samples of --seed 0 into another cache slot
    argv = ("verify", "decoupling", "--matrix", id4, "--dims", "2,2", "--samples", "1000",
            "--seed", str(2**64))
    assert run(*argv, "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err == ("error: sampling seed must lie in [0, 2^64), "
                                       f"got {2**64}\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("ceiling", ["nan", "-inf", "x"])
def test_nan_ceiling_is_usage_error(tmp_path, capsys, ceiling):
    assert run(*MAIN_UPPER_SMALL, f"--ceiling={ceiling}", "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: not a finite number: ")
    assert not (tmp_path / "c").exists()


def test_inf_ceiling_means_no_ceiling(tmp_path):
    assert run(*MAIN_UPPER_SMALL, "--ceiling", "inf", "--cache", tmp_path / "c") == EXIT_OK
    report = json.loads(next((tmp_path / "c").iterdir()).joinpath("report.json").read_text())
    assert report["config"]["ceiling"] == math.inf and report["status"] == "pass"


def test_unknown_format_is_usage_error(tmp_path, capsys):
    assert run("verify", "identities", "--formats", "json,xlsx",
               "--cache", tmp_path / "c") == EXIT_USAGE
    assert "unknown report format in 'json,xlsx'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_verify_identities(tmp_path):
    assert run("verify", "identities", "--seed", 7, "--cache", tmp_path / "c") == EXIT_OK


def test_verify_unknown_suite(tmp_path):
    assert run("verify", "nonsense", "--cache", tmp_path / "c") == EXIT_USAGE


def test_verify_decoupling_random_matrix(tmp_path):
    code = run("verify", "decoupling", "--dims", "2,2", "--dist", "gaussian",
               "--p", "2", "--samples", "5000", "--seed", "1", "--cache", tmp_path / "c")
    assert code == EXIT_OK


def test_verify_main_lower_dist_restriction(tmp_path):
    assert run("verify", "main-lower", "--dims", "2,2", "--dist", "rademacher",
               "--cache", tmp_path / "c") == EXIT_USAGE


def test_verify_exit_on_violation(tmp_path, id4):
    # an impossible ceiling forces a main-upper failure
    code = run("verify", "main-upper", "--matrix", id4, "--dims", "2,2",
               "--p", "2", "--samples", "2000", "--ceiling", "1e-9",
               "--cache", tmp_path / "c")
    assert code == EXIT_VIOLATION


def test_report_json_byte_identical_across_runs(tmp_path):
    argv = ["verify", "decoupling", "--dims", "2,2", "--dist", "gaussian",
            "--p", "2", "--samples", "2000", "--seed", "3"]
    run(*argv, "--cache", tmp_path / "A")
    run(*argv, "--cache", tmp_path / "B")
    a = next((tmp_path / "A").iterdir()) / "report.json"
    b = next((tmp_path / "B").iterdir()) / "report.json"
    assert a.read_bytes() == b.read_bytes()


def test_cache_reuse_same_slot(tmp_path, capsys):
    argv = ["verify", "identities", "--seed", "1", "--cache", tmp_path / "c"]
    run(*argv)
    first = capsys.readouterr().out
    run(*argv)
    second = capsys.readouterr().out
    assert "written to" in first
    assert "cached at" in second
    assert len(list((tmp_path / "c").iterdir())) == 1


def test_different_config_different_slot(tmp_path):
    run("verify", "identities", "--seed", "1", "--cache", tmp_path / "c")
    run("verify", "identities", "--seed", "2", "--cache", tmp_path / "c")
    assert len(list((tmp_path / "c").iterdir())) == 2


def test_report_merging_and_corrupt_entry(tmp_path, capsys):
    cache = tmp_path / "c"
    run("verify", "identities", "--seed", "1", "--cache", cache)
    run("verify", "hanson-wright", "--n", "4", "--samples", "2000", "--seed", "2",
        "--cache", cache)
    bad = cache / "deadbeef0000"
    bad.mkdir()
    (bad / "report.json").write_text("{ not json")
    assert run("report", "--cache", cache) == EXIT_OK
    out = capsys.readouterr()
    assert "identities" in out.out and "hanson-wright" in out.out
    assert "deadbeef0000" in out.err  # corrupt entry skipped with a warning


def test_report_skips_entry_that_is_not_an_object(tmp_path, capsys):
    cache = tmp_path / "c"
    run("verify", "identities", "--seed", "1", "--cache", cache)
    bad = cache / "deadbeef0000"
    bad.mkdir()
    (bad / "report.json").write_text("[1, 2]")
    assert run("report", "--cache", cache) == EXIT_OK
    out = capsys.readouterr()
    assert "identities" in out.out
    assert "skipping corrupt entry deadbeef0000" in out.err


def test_report_skips_a_slot_without_report_json(tmp_path, capsys):
    cache = tmp_path / "c"
    run("verify", "identities", "--seed", "1", "--cache", cache)
    (cache / "0123456789ab").mkdir()  # an interrupted write leaves a slot like this
    (cache / "0123456789ab" / "runinfo.json").write_text("{}\n")
    capsys.readouterr()
    assert run("report", "--cache", cache) == EXIT_OK
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert len(lines) == 3 and lines[2].split()[1] == "identities"
    assert "0123456789ab" not in out.out + out.err


@pytest.mark.parametrize("text", ['{"config": [1]}', '{"fitted_constant": "x"}'])
def test_report_skips_object_of_the_wrong_shape(tmp_path, capsys, text):
    cache = tmp_path / "c"
    run("verify", "identities", "--seed", "1", "--cache", cache)
    bad = cache / "deadbeef0000"
    bad.mkdir()
    (bad / "report.json").write_text(text)
    assert run("report", "--cache", cache) == EXIT_OK
    out = capsys.readouterr()
    assert "identities" in out.out
    assert "skipping corrupt entry deadbeef0000" in out.err


@pytest.mark.parametrize("matrix, dims", [(np.zeros((2, 2)), "2"), (np.eye(6), "2,3")])
def test_bounds_negative_t_is_usage_error_when_the_tail_curve_is_skipped(tmp_path, capsys,
                                                                        matrix, dims):
    path = tmp_path / "m.csv"
    save_matrix_csv(path, matrix)
    cache = tmp_path / "c"
    assert run("bounds", "--matrix", path, "--dims", dims, "--t", "-1",
               "--cache", cache) == EXIT_USAGE
    assert "t = -1.0 must be >= 0" in capsys.readouterr().err
    assert not cache.exists() or not any(cache.iterdir())


def test_bounds_nonpositive_C_tail_is_usage_error_when_the_tail_curve_is_skipped(tmp_path,
                                                                                 capsys):
    path = tmp_path / "m.csv"
    save_matrix_csv(path, np.eye(6))
    cache = tmp_path / "c"
    assert run("bounds", "--matrix", path, "--dims", "2,3", "--C-tail", "0",
               "--cache", cache) == EXIT_USAGE
    assert "C_tail = 0.0 must be > 0" in capsys.readouterr().err
    assert not cache.exists() or not any(cache.iterdir())


def test_report_empty_cache(tmp_path):
    (tmp_path / "c").mkdir()
    assert run("report", "--cache", tmp_path / "c") == EXIT_USAGE
    assert run("report", "--cache", tmp_path / "missing") == EXIT_USAGE


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("KRONCHAOS_CACHE", str(tmp_path / "envcache"))
    run("verify", "identities", "--seed", "4")
    assert (tmp_path / "envcache").exists()


def test_gaussian_decoupling_vector_flag(tmp_path):
    code = run("verify", "gaussian-decoupling", "--vector", "1,0,0",
               "--samples", "5000", "--seed", "1", "--cache", tmp_path / "c")
    assert code == EXIT_OK


def test_bounds_rectangular_matrix(tmp_path):
    path = tmp_path / "rect.csv"
    save_matrix_csv(path, np.random.default_rng(0).standard_normal((2, 4)))
    code = run("bounds", "--matrix", path, "--dims", "2,2", "--t", "0.5,1",
               "--cache", tmp_path / "c")
    assert code == EXIT_OK
    report = json.loads(next((tmp_path / "c").iterdir()).joinpath("report.json").read_text())
    assert report["mp_main"] == {}
    assert report["mp_norm"]
    assert report["tail_curve"]
    assert any("not square" in w for w in report["warnings"])


def test_bounds_of_a_zero_matrix_prints_both_warnings(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    save_matrix_csv(path, np.zeros((4, 4)))
    assert run("bounds", "--matrix", path, "--dims", "2,2", "--t", "1",
               "--cache", tmp_path / "c") == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  warning: tail curve skipped: needs equal per-axis dims and a nonzero matrix",
        "  warning: zero matrix: norm-deviation functional undefined"]


@pytest.mark.parametrize("argv, shape, message", [
    (("verify", "hanson-wright", "--samples", "1000"), (4, 3),
     "need a square matrix, got shape (4, 3)"),
    (("verify", "ax-tail", "--dims", "2,2", "--samples", "10000"), (4, 5),
     "matrix has 5 columns, expected 4"),
], ids=["hanson-wright-not-square", "ax-tail-columns"])
def test_matrix_of_the_wrong_shape_is_usage_error(tmp_path, capsys, argv, shape, message):
    path = tmp_path / "m.csv"
    save_matrix_csv(path, np.ones(shape))
    assert run(*argv, "--matrix", path, "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "c").exists()


def test_matrix_csv_skips_blank_and_comment_lines(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("# identity\n\n1,0\n  # between rows\n0,1\n\n")
    assert np.array_equal(load_matrix_csv(path), np.eye(2))
    path.write_text("# only\n\n# comments\n")
    assert run("bounds", "--matrix", path, "--dims", "2", "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}: empty matrix\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv, name", [
    (("bounds", "--dims", "2,2", "--L", "1e200"), "L = 1e+200"),
    (("bounds", "--dims", "4", "--t", "1e200"), "t = 1e+200"),
    (("verify", "ax-tail", "--dims", "4", "--t", "1e200", "--samples", "10000"), "t = 1e+200"),
    (("verify", "main-upper", "--dims", "2,2", "--dist", "two_point", "--q", "1e-300",
      "--samples", "1000"), "L = 1.58663e+147 of two_point(1e-300)"),
    (("verify", "hanson-wright", "--dist", "two_point", "--q", "1e-300", "--samples", "1000"),
     "K = 1.58663e+147 of two_point(1e-300)"),
], ids=["bounds-L", "bounds-t", "ax-tail-t", "main-upper-q", "hanson-wright-q"])
def test_input_whose_bound_power_overflows_is_usage_error(tmp_path, capsys, argv, name):
    # each printed an OverflowError traceback and exited 1, the code of a violation
    assert run(*argv, "--cache", tmp_path / "c") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err and "too large" in err
    assert not (tmp_path / "c").exists()


def test_matrix_whose_frobenius_norm_overflows_is_usage_error(tmp_path, capsys):
    # its entries are finite.  ax-tail used to exit 2 only after every sample,
    # and with no --t to blame t = inf; main-lower exited 1, a false violation;
    # the others wrote an infinite mp, limit or exact value.
    path = tmp_path / "big.csv"
    save_matrix_csv(path, np.eye(4) * 1e200)
    big = ("--matrix", path, "--dims", "2,2")
    for argv in [("verify", "ax-tail", "--matrix", path, "--dims", "4", "--t", "1",
                  "--samples", "10000"),
                 ("verify", "ax-tail", "--matrix", path, "--dims", "4", "--samples", "10000"),
                 ("verify", "hanson-wright", "--matrix", path, "--samples", "1000"),
                 ("verify", "decoupling", *big, "--samples", "1000"),
                 ("verify", "main-upper", *big, "--samples", "1000"),
                 ("verify", "main-lower", *big, "--samples", "1000"),
                 ("bounds", *big)]:
        assert run(*argv, "--cache", tmp_path / "c") == EXIT_USAGE, argv
        assert capsys.readouterr().err == (
            "error: matrix is too large: its Frobenius norm overflows\n"), argv
    assert run("verify", "gaussian-decoupling", "--vector", "1e200,1e200",
               "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err == "error: vector is too large: its Frobenius norm overflows\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ("verify", "main-upper", "--dims", "2,2", "--samples", "-5"),
    ("verify", "main-lower", "--dims", "2,2", "--samples", "-5"),
    ("verify", "gaussian-decoupling", "--samples", "-5"),
    ("verify", "hanson-wright", "--samples", "-5"),
    ("verify", "gaussian-decoupling", "--vector", ","),
])
def test_bad_samples_or_empty_vector_is_usage_error(tmp_path, capsys, argv):
    assert run(*argv, "--cache", tmp_path / "c") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "needs S >= 100" in err or "needs at least one coefficient" in err
    assert not (tmp_path / "c").exists()


def _slots(cache):
    return sorted(p.name for p in cache.iterdir())


def test_cache_slot_depends_on_matrix_file(tmp_path, capsys):
    rng = np.random.default_rng(12)
    for name in ("a.csv", "b.csv"):
        save_matrix_csv(tmp_path / name, rng.standard_normal((4, 4)))
        assert run("verify", "main-upper", "--dims", "2,2", "--matrix", tmp_path / name,
                   "--p", "2", "--samples", "2000", "--restarts", "2",
                   "--cache", tmp_path / "c") == EXIT_OK
        assert "written to" in capsys.readouterr().out
    assert len(_slots(tmp_path / "c")) == 2


def test_cache_slot_depends_on_vector(tmp_path, capsys):
    for vector in ("1,2", "5,-7"):
        assert run("verify", "gaussian-decoupling", "--vector", vector, "--samples", "2000",
                   "--cache", tmp_path / "c") == EXIT_OK
        assert "written to" in capsys.readouterr().out
    assert len(_slots(tmp_path / "c")) == 2


def test_cache_slot_depends_on_restarts(tmp_path, id4, capsys):
    for restarts in ("1", "2"):
        assert run("verify", "main-lower", "--dims", "2,2", "--matrix", id4, "--p", "2",
                   "--samples", "2000", "--restarts", restarts,
                   "--cache", tmp_path / "c") == EXIT_OK
        assert "written to" in capsys.readouterr().out
    assert len(_slots(tmp_path / "c")) == 2


def test_cache_hit_adds_missing_formats(tmp_path, capsys):
    argv = ("verify", "identities", "--seed", "3", "--cache", tmp_path / "c")
    assert run(*argv, "--formats", "json") == EXIT_OK
    slot = tmp_path / "c" / _slots(tmp_path / "c")[0]
    assert not (slot / "report.csv").exists()
    report_bytes = (slot / "report.json").read_bytes()
    assert run(*argv, "--formats", "json,csv") == EXIT_OK
    assert "cached at" in capsys.readouterr().out.splitlines()[-1]
    assert (slot / "report.csv").read_text().startswith("check,max_relative_error\n")
    assert (slot / "report.json").read_bytes() == report_bytes


def test_cache_slot_depends_on_code(tmp_path, monkeypatch, capsys):
    argv = ("verify", "identities", "--seed", "1", "--cache", tmp_path / "c")
    run(*argv)
    monkeypatch.setattr(cli, "_code_fingerprint", lambda: "edited source")
    run(*argv)
    assert "written to" in capsys.readouterr().out.splitlines()[-1]
    assert len(_slots(tmp_path / "c")) == 2


def test_interrupted_write_leaves_no_report(tmp_path, monkeypatch, capsys):
    def crash(src, dst):
        raise KeyboardInterrupt

    argv = ("verify", "identities", "--seed", "1", "--cache", tmp_path / "c")
    monkeypatch.setattr(cli.os, "replace", crash)
    with pytest.raises(KeyboardInterrupt):
        run(*argv)
    slot = tmp_path / "c" / _slots(tmp_path / "c")[0]
    assert not any(p.name in ("report.json", "report.csv", "runinfo.json")
                   for p in slot.iterdir())
    assert not any(p.name.endswith(".tmp") for p in slot.iterdir())
    monkeypatch.undo()
    capsys.readouterr()
    assert run(*argv) == EXIT_OK
    assert "written to" in capsys.readouterr().out
    assert json.loads((slot / "report.json").read_text())["suite"] == "identities"


@pytest.mark.parametrize("argv, message", [
    (("verify", "hanson-wright", "--n", "4", "--p", "2,4", "--samples", "10000"),
     "unrecognized arguments: --p 2,4"),
    (("verify", "decoupling", "--dims", "2,2", "--t", "5", "--samples", "1000"),
     "unrecognized arguments: --t 5"),
    (("verify", "identities", "--restarts", "0"), "unrecognized arguments: --restarts 0"),
    # no abbreviation: --c would otherwise name ax-tail's --cache
    (("verify", "ax-tail", "--dims", "2", "--c", "2"), "unrecognized arguments: --c 2"),
    (("verify", "main-upper", "--dims", "2", "--dist", "rademacher", "--q", "0.01"),
     "q changes nothing unless the family is two_point, got rademacher"),
    (("verify", "hanson-wright", "--q", "0.3"),
     "q changes nothing unless the family is two_point, got gaussian"),
    (("verify", "hanson-wright", "--n", "99", "--matrix", "ID4"),
     "--n changes nothing when --matrix is given"),
])
def test_option_that_changes_nothing_is_usage_error(tmp_path, id4, capsys, argv, message):
    argv = [id4 if a == "ID4" else a for a in argv]
    assert run(*argv, "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ("bounds", "--dims", "2", "--matrix", "DIR", "--cache", "CACHE"),
    ("verify", "main-upper", "--dims", "2", "--matrix", "UTF16", "--cache", "CACHE"),
    ("verify", "identities", "--cache", "FILE"),
    ("report", "--cache", "FILE"),
], ids=["matrix-is-a-directory", "matrix-is-utf16", "verify-cache-is-a-file",
        "report-cache-is-a-file"])
def test_unreadable_input_is_usage_error(tmp_path, capsys, argv):
    paths = {"DIR": tmp_path / "dir", "UTF16": tmp_path / "m.csv", "FILE": tmp_path / "file",
             "CACHE": tmp_path / "c"}
    paths["DIR"].mkdir()
    paths["UTF16"].write_text("1,0\n0,1\n", encoding="utf-16")
    paths["FILE"].write_text("")
    assert run(*(paths.get(a, a) for a in argv)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
    assert not paths["CACHE"].exists()


def _leaf_commands(parser, prefix=()):
    """(command words, long options) of every command the parser runs."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(prefix), {opt for a in parser._actions for opt in a.option_strings
                                 if opt.startswith("--") and opt != "--help"}
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_commands(child, (*prefix, name))


# The options each command reads besides --seed, --cache and --formats.
READS = {
    "bounds": "--matrix --dims --p --t --restarts --L --C-tail",
    "verify identities": "",
    "verify decoupling": "--matrix --dims --dist --q --p --samples",
    "verify main-upper": "--matrix --dims --dist --q --p --samples --restarts --ceiling",
    "verify main-lower": "--matrix --dims --p --samples --restarts",
    "verify ax-tail": "--matrix --dims --dist --q --t --samples --C-tail",
    "verify gaussian-decoupling": "--vector --p --samples",
    "verify hanson-wright": "--matrix --n --dist --q --t --samples --c",
}


def test_each_command_accepts_only_the_options_it_reads():
    accepted = dict(_leaf_commands(build_parser()))
    assert accepted.pop("report") == {"--cache"}
    assert accepted == {cmd: {"--seed", "--cache", "--formats", *opts.split()}
                        for cmd, opts in READS.items()}
    assert sum(map(len, accepted.values())) == 67


def test_module_docstring_lists_the_options_each_command_accepts():
    listed = {}
    for line in cli.__doc__.splitlines():
        m = re.fullmatch(r"  (\w+(?: [\w-]+)?)(?: \(.*\))?: (.*)", line)
        if m:
            listed[m[1]] = {word for word in m[2].split() if word.startswith("--")}
    accepted = dict(_leaf_commands(build_parser()))
    common = {"--seed", "--cache", "--formats"}
    assert listed == {cmd: opts if cmd == "report" else opts - common
                      for cmd, opts in accepted.items()}


# --cache and --formats choose where and what is written.
NOT_IN_CONFIG = {"--cache", "--formats"}
# Each command at dims 2 and its smallest sample count.
BASE = {
    "bounds": ("--dims", "2"),
    "verify identities": (),
    "verify decoupling": ("--dims", "2", "--samples", "1000"),
    "verify main-upper": ("--dims", "2", "--samples", "100"),
    "verify main-lower": ("--dims", "2", "--samples", "100"),
    "verify ax-tail": ("--dims", "2", "--samples", "10000"),
    "verify gaussian-decoupling": ("--samples", "100"),
    "verify hanson-wright": ("--samples", "100"),
}
# A value other than the default for each option, and the options --q needs to be read.
CHANGED = {"--seed": "1", "--matrix": "MATRIX", "--dims": "3", "--p": "2", "--t": "1",
           "--restarts": "1", "--L": "2", "--C-tail": "2", "--dist": "rademacher", "--q": "0.1",
           "--samples": "20000", "--ceiling": "10", "--c": "2", "--n": "3", "--vector": "1,2"}
CONTEXT = {"--q": ("--dist", "two_point")}
PAIRS = [(cmd, opt) for cmd, opts in _leaf_commands(build_parser()) if cmd != "report"
         for opt in sorted(opts - NOT_IN_CONFIG)]


@pytest.mark.parametrize("command, option", PAIRS)
def test_every_accepted_option_changes_the_report_config(tmp_path, command, option):
    matrix = tmp_path / "m.csv"
    save_matrix_csv(matrix, np.array([[1.0, 0.5], [0.5, 2.0]]))
    argv = (*command.split(), *BASE[command], *CONTEXT.get(option, ()))

    def config(*extra):
        cache = tmp_path / f"c{len(extra)}"
        extra = [matrix if a == "MATRIX" else a for a in extra]
        assert run(*argv, *extra, "--cache", cache, "--formats", "json") in (EXIT_OK,
                                                                             EXIT_VIOLATION)
        return json.loads(next(cache.iterdir()).joinpath("report.json").read_text())["config"]

    assert config(option, CHANGED[option]) != config()


# Namespace keys the CLI reads itself; --seed also draws the default matrix
# and vector, so it keeps a default of its own.
CLI_KEYS = {"command", "suite", "func", "seed", "matrix", "dims", "dist", "vector", "cache",
            "formats"}
CLI_OPTIONS = {"--seed", "--matrix", "--dims", "--dist", "--vector", "--cache", "--formats"}


@pytest.mark.parametrize("command", sorted(READS))
def test_namespace_holds_a_library_keyword_only_when_given(command):
    # an option default would restate the library's, so each default lives
    # only in the library signature
    parser = build_parser()
    keys = set(vars(parser.parse_args(command.split())))
    assert keys <= CLI_KEYS
    for option in sorted(set(READS[command].split()) - CLI_OPTIONS):
        given = vars(parser.parse_args([*command.split(), *CONTEXT.get(option, ()),
                                        option, CHANGED[option]]))
        assert len(set(given) - keys - CLI_KEYS) == 1, option


def test_library_defaults_given_share_the_slot_of_the_run_without_them(tmp_path, capsys):
    argv = ("verify", "main-upper", "--dims", "2", "--p", "2", "--cache", tmp_path / "c")
    assert run(*argv) == EXIT_OK
    assert "written to" in capsys.readouterr().out
    assert run(*argv, "--restarts", "32", "--samples", "100000", "--ceiling", "50") == EXIT_OK
    assert "cached at" in capsys.readouterr().out


def test_bounds_writes_the_library_bound_report(tmp_path, capsys):
    # one matrix read from two paths lands in one cache slot: the config holds
    # the digest of the matrix, not its path
    A = np.random.default_rng(5).standard_normal((4, 4))
    (tmp_path / "sub").mkdir()
    paths = (tmp_path / "m.csv", tmp_path / "sub" / "m.csv")
    for path in paths:
        save_matrix_csv(path, A)
    argv = ("bounds", "--dims", "2,2", "--t", "1", "--seed", "3", "--restarts", "4")
    opts = NormOptions(restarts=4, seed=3)
    for path, verb in zip(paths, ("written to", "cached at")):
        assert run(*argv, "--matrix", path, "--cache", tmp_path / "c") == EXIT_OK
        assert f"bounds: report {verb}" in capsys.readouterr().out
    slot, = (tmp_path / "c").iterdir()
    expected = bound_report(A, Dims([2, 2]), t_grid=[1.0], seed=3, norm_opts=opts)
    assert (slot / "report.json").read_text() == _report_json(expected)

    assert run(*argv, "--cache", tmp_path / "r") == EXIT_OK
    random = np.random.default_rng((3, 0x6D6174)).standard_normal((4, 4))
    expected = bound_report(random, Dims([2, 2]), t_grid=[1.0], seed=3, norm_opts=opts)
    slot, = (tmp_path / "r").iterdir()
    assert (slot / "report.json").read_text() == _report_json(expected)


@pytest.mark.parametrize("argv, call", [
    (("bounds", "--dims", "2"), "bound_report"),
    (("verify", "identities"), "run_identity_suite"),
])
def test_unusable_cache_is_usage_error_before_the_report_is_computed(tmp_path, monkeypatch,
                                                                     capsys, argv, call):
    def refuse(*args, **kwargs):
        raise AssertionError("the report was computed before the cache was checked")

    monkeypatch.setattr(cli, call, refuse)
    (tmp_path / "file").write_text("")
    for cache in (tmp_path / "file", tmp_path / "file" / "sub"):
        assert run(*argv, "--cache", cache) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: cannot use cache directory {cache}: "
                                           f"{tmp_path / 'file'} is not a directory\n")
