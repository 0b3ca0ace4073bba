"""Command line contract: exit codes, caching, determinism, report merging."""

import json
import math

import numpy as np
import pytest

from kronchaos.arrayio import save_matrix_csv
from kronchaos.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main


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
])
def test_non_finite_number_is_usage_error(tmp_path, capsys, argv):
    assert run(*argv, "--cache", tmp_path / "c") == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: not a finite number: ")
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
    assert "fitted-constant history" in out.out


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
    import kronchaos.cli as cli

    argv = ("verify", "identities", "--seed", "1", "--cache", tmp_path / "c")
    run(*argv)
    monkeypatch.setattr(cli, "_code_fingerprint", lambda: "edited source")
    run(*argv)
    assert "written to" in capsys.readouterr().out.splitlines()[-1]
    assert len(_slots(tmp_path / "c")) == 2


def test_interrupted_write_leaves_no_report(tmp_path, monkeypatch, capsys):
    import kronchaos.cli as cli

    def crash(src, dst):
        raise KeyboardInterrupt

    argv = ("verify", "identities", "--seed", "1", "--cache", tmp_path / "c")
    monkeypatch.setattr(cli.os, "replace", crash)
    with pytest.raises(KeyboardInterrupt):
        run(*argv)
    slot = tmp_path / "c" / _slots(tmp_path / "c")[0]
    assert not any(p.name in ("report.json", "report.csv", "runinfo.json")
                   for p in slot.iterdir())
    monkeypatch.undo()
    capsys.readouterr()
    assert run(*argv) == EXIT_OK
    assert "written to" in capsys.readouterr().out
    assert json.loads((slot / "report.json").read_text())["suite"] == "identities"
