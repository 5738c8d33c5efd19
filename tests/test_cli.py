import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicwave import acceptance, cli, lattice
from padicwave.acceptance import CheckResult
from padicwave.functions import (
    CosetFunction,
    ball_indicator,
    save_coset_function,
    to_json_dict,
)
from padicwave.padic import PrimeContext
from padicwave.solver import PropagationMultiplier, kernel_closed_form


def read_table(path: Path) -> dict:
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out[row["x0"]] = Fraction(int(row["num"]), int(row["den"]))
    return out


def test_solve_defaults_write_exact_slices(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["solve", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["p"] == 2 and summary["K"] == 1
    assert summary["u0_in_zero_mean_class"] is True
    assert summary["sweep"] == [-2, -1, 0, 1]

    u0 = read_table(out / "u0.csv")
    ctx = PrimeContext(2)
    for L in summary["sweep"]:
        sl = read_table(out / f"slice_L{L}.csv")
        b = PropagationMultiplier(ctx, 1).value(L, 1)  # data sits on frequency sphere 1
        assert set(sl) == set(u0)
        for key, v0 in u0.items():
            assert sl[key] == b * v0, (L, key)
    assert "wrote 4 slices" in capsys.readouterr().out


def test_solve_output_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--out", str(a)]) == 0
    assert cli.main(["solve", "--out", str(b)]) == 0
    names = sorted(f.name for f in a.iterdir())
    assert names == sorted(f.name for f in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_solve_explicit_sweep_and_profile(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "p": 3,
                "K": 2,
                "u0_spec": "eigen 1 1",
                "sweep": [-5, -4, -3, -2],
                "profile_points": ["0"],
            }
        )
    )
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sweep"] == [-5, -4, -3, -2]
    assert (out / "slice_L-5.csv").exists()
    assert not (out / "slice_L0.csv").exists()
    assert summary["profiles"] == [{"point": "0", "file": "profile_0.csv"}]
    rows = list(csv.DictReader(open(out / "profile_0.csv", encoding="utf-8")))
    assert rows[0]["kind"] == "core"
    assert any(r["kind"] == "shell" for r in rows)


def test_a_decimal_profile_point_is_read_exactly(tmp_path):
    # 0.1 as a float is 3602879701896397/2**55, a 5-adic unit, not 1/10
    written = []
    for point in ("1/10", "0.1", " 1e-1 "):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 5, "u0_spec": "eigen 0 1", "profile_points": [point]}))
        out = tmp_path / f"run{len(written)}"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        written.append((out / "profile_0.csv").read_text())
    assert written[0] == written[1] == written[2]
    assert "core,,-0.20000000000000001,0,-1,5\n" in written[0]


def test_kernel_table_all_rows_agree(tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    code = cli.main(
        ["kernel-table", "--p", "2", "--K", "2", "--out", str(out),
         "--L-min", "-5", "--L-max", "5", "--M-min", "-5", "--M-max", "5"]
    )
    assert code == 0
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    assert len(rows) == 11 * 11
    assert all(r["equal"] == "true" for r in rows)
    assert "0 mismatching rows" in capsys.readouterr().out


def test_kernel_table_floor_bracket_fails(tmp_path, monkeypatch):
    # the known-wrong bracket in place of the closed form: kernel-table must report it
    monkeypatch.setattr(cli, "kernel_closed_form",
                        lambda *args: kernel_closed_form(*args, bracket="floor"))
    out = tmp_path / "kernel.csv"
    code = cli.main(["kernel-table", "--p", "2", "--K", "2", "--out", str(out)])
    assert code == 1
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    assert any(r["equal"] == "false" for r in rows)


def test_kernel_table_range_validation(tmp_path, capsys):
    code = cli.main(["kernel-table", "--L-max", "13", "--out", str(tmp_path)])
    assert code == 2
    assert "must sit inside" in capsys.readouterr().err
    code = cli.main(["kernel-table", "--L-min", "3", "--L-max", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "L range [3, 2] is empty" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_eigen_check_passes(capsys):
    assert cli.main(["eigen-check", "--p", "3", "--K", "2", "--N", "1"]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [["--N", "-2"], ["--N", "2", "--C", "2/7"]])
def test_eigen_check_is_exact_on_exact_data(extra, capsys):
    # each reference is p**(K*N) * f computed exactly and rounded once, as verify does
    assert cli.main(["eigen-check", "--p", "3", *extra]) == 0
    assert capsys.readouterr().out.endswith("worst relative error 0.000e+00 (ok)\n")


def test_incompatible_orders_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1, "beta": 1.5}))
    code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("refused:")
    assert "zero solution" in err


def test_nonzero_mean_table_file_is_rejected(tmp_path, capsys):
    table = tmp_path / "u0.json"
    save_coset_function(ball_indicator(PrimeContext(2), 1, 0), table)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u0_spec": str(table)}))
    code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "zero mean" in capsys.readouterr().err


def test_all_zero_table_solves_with_zero_l1_ratios(tmp_path):
    # ||u0||_1 = 0: every slice is zero too, and its growth ratio reads 0
    table = tmp_path / "u0.json"
    save_coset_function(CosetFunction.from_values(PrimeContext(3), 1, 1, 1, [0] * 9), table)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "K": 2, "u0_spec": str(table)}))
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    ratios = json.loads((out / "summary.json").read_text())["l1_ratio_by_L"]
    assert len(ratios) == 8 and set(ratios.values()) == {"0"}


def test_table_with_a_tiny_exact_mean_is_rejected(tmp_path, capsys):
    table = tmp_path / "u0.json"
    values = [1 + Fraction(2, 3 * 10**12), -1]  # integral 1/(3*10**12)
    save_coset_function(CosetFunction.from_values(PrimeContext(2), 1, 0, 1, values), table)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u0_spec": str(table)}))
    code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "zero mean" in capsys.readouterr().err


def test_bad_config_files(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.main(["solve", "--config", str(bad_json)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"prime": 2, "tolerances": {"eigen": 1e-10}}))
    assert cli.main(["solve", "--config", str(unknown)]) == 2
    assert "unknown config keys: ['prime', 'tolerances']" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert cli.main(["solve", "--config", str(missing)]) == 2


def test_grid_cap_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PADICWAVE_GRID_CAP", "10")
    code = cli.main(
        ["solve", "--p", "5", "--n", "2", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_auto_sweep_past_the_label_cap_exits_3_before_writing(tmp_path, capsys):
    # spheres 0 and 1 are present, so the auto sweep holds K + 4 labels
    table = tmp_path / "u0.json"
    table.write_text(json.dumps({"p": 2, "n": 1, "M": 1, "ell": 1, "values": [
        {"re": str(v), "im": "0", "digits": [[a, b]]}
        for (a, b), v in zip([(0, 0), (0, 1), (1, 0), (1, 1)], [3, -1, -1, -1])
    ]}))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p": 2, "n": 1, "K": 1000000, "u0_spec": str(table)}))
    out = tmp_path / "o"
    start = time.perf_counter()
    code = cli.main(["solve", "--config", str(config), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1000004 labels" in err, err
    assert not out.exists()


def stub_results(ok: bool):
    return [
        CheckResult(name="alpha", passed=True, detail="fine"),
        CheckResult(name="beta", passed=ok, detail="fine" if ok else "broke"),
    ]


def test_verify_exit_codes_with_stubbed_suite(monkeypatch, capsys):
    # the real suite runs for many seconds; wiring is what matters here
    monkeypatch.setattr(acceptance, "run_all", lambda **kw: stub_results(True))
    assert cli.main(["verify"]) == 0
    assert "all 2 checks passed" in capsys.readouterr().out

    monkeypatch.setattr(acceptance, "run_all", lambda **kw: stub_results(False))
    assert cli.main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "FAILED: beta: broke" in captured.err


def test_verify_passes_seed_and_bracket_through(tmp_path, monkeypatch):
    seen = {}

    def spy(**kw):
        seen.update(kw)
        return stub_results(True)

    monkeypatch.setattr(acceptance, "run_all", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    assert cli.main(["verify", "--config", str(cfg), "--inject-bracket", "floor"]) == 0
    assert seen == {"bracket": "floor", "seed": 7}


GOLDEN = Path(__file__).parent / "data" / "golden"


def test_verify_report_matches_golden(capsys):
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-default.txt").read_text()


def test_K_from_beta_builds_the_eigen_datum_it_evolves(tmp_path):
    # K given, and K = beta/alpha: the same problem, so the same files
    runs = {}
    for name, doc in (("K", {"K": 3}), ("beta", {"alpha": 1, "beta": 3})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"p": 2, "u0_spec": "eigen 1 1", **doc}))
        out = tmp_path / name
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        runs[name] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert runs["beta"] == runs["K"]
    # the datum sits on the frequency sphere K*N = 3, so the sweep is -3K - 1 .. -3K + 2
    slices = [f"slice_L{L}.csv" for L in range(-10, -6)]
    assert sorted(runs["K"]) == sorted([*slices, "summary.json", "u0.csv"])


def _no_representatives(grid):
    raise AssertionError(f"representatives of {len(grid)} cosets were built")


@pytest.mark.parametrize(
    "case",
    ["default", "eigen-p2-n2-K3", "table-p3-n1-K2", "table-p3-n2-complex", "eigen-p3-float-C"],
)
def test_solve_output_matches_golden_files(case, tmp_path, monkeypatch):
    # the table config names its u0 file relative to the golden directory; a
    # float C makes eigen-p3-float-C a complex table, zero outside its support
    # included, so its u0.csv and its first profile carry no num/den
    monkeypatch.chdir(GOLDEN)
    # the solve path reads a grid through its digits and never builds a representative
    monkeypatch.setattr(lattice.CosetGrid, "representatives", property(_no_representatives))
    out = tmp_path / case
    assert cli.main(["solve", "--config", f"{case}.json", "--out", str(out)]) == 0
    want = GOLDEN / case
    names = sorted(f.name for f in want.iterdir())
    assert sorted(f.name for f in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def test_solve_p5_n2_files_hash_as_pinned(tmp_path):
    # 15,625 cosets: every file padicwave solve writes, against its sha256
    out = tmp_path / "out"
    assert cli.main(["solve", "--p", "5", "--n", "2", "--out", str(out)]) == 0
    want = dict(
        reversed(line.split()) for line in (GOLDEN / "solve-p5-n2.sha256").read_text().splitlines()
    )
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == want


def test_solve_writes_no_negative_zero(tmp_path):
    # a negative float C scales a real radial function: every imaginary part is +0;
    # a zero float C gives +0 real parts in u0.csv, as in every slice
    for C in ("-0.5", "0.0", "-0.0"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0_spec": f"eigen 1 {C}", "p": 3}))
        out = tmp_path / C
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        for path in out.glob("*.csv"):
            with open(path, newline="", encoding="utf-8") as fh:
                assert not any("-0" in row for row in csv.reader(fh)), (C, path.name)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--tol-duality", "5"],
        ["verify", "--out", "x"],
        ["verify", "--tol-duality", "1"],
        ["eigen-check", "--tol-eigen", "1"],
        ["kernel-table", "--bracket", "floor"],
    ],
    ids=["solve", "verify", "verify-tol", "eigen-check-tol", "kernel-table-bracket"],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _broken_table(path: Path, edit: str) -> Path:
    """A saved coset table with one entry broken as edit names."""
    if edit == "not-json":
        table = path / "u0.json"
        table.write_text("{")
        return table
    if edit in ("no-re", "saved", "short", "no-values", "M-text", "list"):
        # the 27-coset p = 3 table, as saved or edited
        doc = json.loads((GOLDEN / "table-p3-n1-M2-ell1.json").read_text())
        if edit == "no-re":
            del doc["values"][0]["re"]
        elif edit == "short":
            del doc["values"][0]
        elif edit == "no-values":
            del doc["values"]
        elif edit == "M-text":
            doc["M"] = "2"
        elif edit == "list":
            doc = doc["values"]
    elif edit in ("infinity", "nan", "bool"):
        # a zero-mean complex n=2 table, whose numbers JSON may write as
        # Infinity, NaN or true
        doc = json.loads((GOLDEN / "table-p3-n2-M1-ell1-complex-zero-mean.json").read_text())
        part, value = {"infinity": ("re", math.inf), "nan": ("re", math.nan),
                       "bool": ("im", True)}[edit]
        doc["values"][0][part] = value
    else:
        # all zero, so only the digits can be what is refused
        doc = to_json_dict(CosetFunction.from_values(PrimeContext(3), 1, 1, 1, [0] * 9))
        entries = doc["values"]
        entries[1]["digits"] = {
            "digit": [[3, 0]],  # an out-of-range alias of the coset [0, 1]
            "digit-count": [[1, 0, 0]],
            "coordinates": [[1, 0], [0, 0]],
            "duplicate": entries[0]["digits"],
        }[edit]
    table = path / "u0.json"
    table.write_text(json.dumps(doc))
    return table


@pytest.mark.parametrize(
    "doc, extra",
    [
        ({"p": "abc"}, []),
        ({"alpha": "1/0"}, []),
        ({"sweep": ["x"]}, []),
        ({"n": 0}, []),
        ({}, ["--sweep", "1,a"]),
        ({"p": 3, "u0_spec": "TABLE:no-re"}, []),
        ({"p": 3, "u0_spec": "TABLE:digit"}, []),
        ({"p": 3, "u0_spec": "TABLE:digit-count"}, []),
        ({"p": 3, "u0_spec": "TABLE:coordinates"}, []),
        ({"p": 3, "u0_spec": "TABLE:duplicate"}, []),
        ({"p": 3, "n": 2, "u0_spec": "TABLE:infinity"}, []),
        ({"p": 3, "n": 2, "u0_spec": "TABLE:nan"}, []),
        ({"p": 3, "n": 2, "u0_spec": "TABLE:bool"}, []),
        ({"profile_points": ["1e400"]}, []),
        ({"profile_points": ["nan"]}, []),
        ({"profile_points": ["1,2"]}, []),
        ({"profile_points": ["1/0"]}, []),
        ({"profile_points": ["1e-99999999"]}, []),
        ({"profile_points": ["1e" + "0" * 5000]}, []),
        ({"alpha": "inf"}, []),
        ({"p": 2.5}, []),
        ({"n": True}, []),
        ('{"p": 1e400}', []),
        ('{"n": 1e400}', []),
        ('{"K": 1e400}', []),
        ('{"seed": 1e400}', []),
        ('{"sweep": [1e400]}', []),
        ({"u0_spec": "."}, []),
        ({"p": 3, "u0_spec": "TABLE:not-json"}, []),
        ({"alpha": 10**400}, []),
        ({"beta": 10**400}, []),
        ({"u0_spec": "sphere-indicator 99999"}, []),
        ({"u0_spec": "sphere-indicator -99999"}, []),
        ({"u0_spec": "eigen 2000 1", "K": 3}, []),
        ({"n": 10**7}, []),
        ({"p": 3317044064679887385961981}, []),
        ('{"K": ' + "9" * 5000 + "}", []),
        ({"p": 3, "u0_spec": "eigen 1 1e308"}, []),
        ({"u0_spec": "eigen 1" + "0" * 400 + " 1"}, []),
        ({"K": 10**400, "u0_spec": "eigen 1 1"}, []),
        ({"tolerances": {"eigen": 1e-10}}, []),
        ({"sweep": [1, 1]}, []),
        ({}, ["--sweep", "1,1"]),
        ({"K": 2000, "profile_points": ["1/2"]}, []),
        ({"p": 5, "u0_spec": "TABLE:saved"}, []),
        ({"p": 3, "u0_spec": "TABLE:short"}, []),
        ({"p": 3, "u0_spec": "TABLE:no-values"}, []),
        ({"p": 3, "u0_spec": "TABLE:M-text"}, []),
        ({"p": 3, "u0_spec": "TABLE:list"}, []),
        ("[1]", []),
        ({"u0_spec": "sphere-indicator 1 2"}, []),
        ({"u0_spec": "eigen 1"}, []),
        ({"u0_spec": "sphere-indicator x"}, []),
    ],
    ids=[
        "p", "alpha", "sweep", "n", "sweep-flag", "table-entry",
        "table-digit", "table-digit-count", "table-coordinates", "table-duplicate",
        "table-infinity", "table-nan", "table-bool",
        "profile-overflow", "profile-nan", "profile-length", "profile-zero-division",
        "profile-exponent-huge", "profile-digits-past-int-limit", "alpha-inf", "p-fractional", "n-bool",
        "p-overflow", "n-overflow", "K-overflow", "seed-overflow", "sweep-overflow",
        "table-directory", "table-not-json",
        "alpha-overflow", "beta-overflow", "sphere-indicator-huge", "sphere-indicator-tiny",
        "eigen-huge", "n-huge", "p-beyond-exact-primality", "K-literal-past-int-limit",
        "eigen-float-C-huge", "eigen-N-past-float", "eigen-K-past-float", "tolerance-unknown",
        "sweep-repeated", "sweep-flag-repeated", "profile-weights-huge", "table-other-p",
        "table-short", "table-no-values", "table-M-text", "table-list",
        "config-not-object", "sphere-indicator-usage", "eigen-usage", "sphere-indicator-not-int",
    ],
)
def test_config_errors_exit_2_without_traceback(doc, extra, tmp_path):
    # a string is written as it stands, for JSON such as 1e400 that
    # json.dumps cannot produce
    if isinstance(doc, dict) and doc.get("u0_spec", "").startswith("TABLE:"):
        doc["u0_spec"] = str(_broken_table(tmp_path, doc["u0_spec"].split(":")[1]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "padicwave.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "o"), *extra],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()  # refused before anything is written


def _suite_must_not_run(**kw):
    raise AssertionError("verify ran its suite on a bad setting")


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["verify"], {"tolerances": {"eigen": -1}}),
        (["kernel-table", "--n", "-1"], None),
        (["kernel-table", "--n", "0"], None),
        (["eigen-check", "--p", "3", "--C", "1e308"], None),
        (["eigen-check", "--p", "3", "--N", "400"], None),
        (["eigen-check", "--alpha", "1e-320"], None),
        (["eigen-check", "--alpha", "0"], None),
        (["kernel-table", "--n", "4000"], None),
        (["kernel-table", "--K", "0"], None),
        (["eigen-check", "--K", "0"], None),
    ],
    ids=[
        "verify-config-tol-negative", "kernel-table-n-negative",
        "kernel-table-n-zero", "eigen-check-float-C-huge", "eigen-check-eigenvalue-huge",
        "eigen-check-alpha-tiny", "eigen-check-alpha-zero",
        "kernel-table-values-past-int-str-limit", "kernel-table-K-zero", "eigen-check-K-zero",
    ],
)
def test_bad_settings_of_every_command_exit_2(argv, doc, tmp_path, monkeypatch, capsys):
    # every command reads its shared settings through one parser each, and a
    # refusal comes before anything is computed or written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(acceptance, "run_all", _suite_must_not_run)
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv = [*argv, "--config", "cfg.json"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "kernel-table.csv").exists()


def _one_error_line_naming(path, capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err, err


def test_solve_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert cli.main(["solve", "--out", str(taken)]) == 2
    _one_error_line_naming(taken, capsys)
    assert taken.read_text() == "kept\n"
    assert [f.name for f in tmp_path.iterdir()] == ["taken"]


def test_kernel_table_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "k.csv"
    assert cli.main(["kernel-table", "--out", str(out)]) == 2
    _one_error_line_naming(out, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["u0.csv", "slice_L0.csv", "summary.json"])
def test_solve_output_file_that_cannot_be_opened_exits_2(name, tmp_path, capsys):
    taken = tmp_path / name
    taken.mkdir()  # the default sweep writes slices L = -2 .. 1
    assert cli.main(["solve", "--out", str(tmp_path)]) == 2
    _one_error_line_naming(taken, capsys)
    assert [f.name for f in tmp_path.iterdir()] == [name]


def test_kernel_table_default_matches_golden(tmp_path):
    out = tmp_path / "k.csv"
    assert cli.main(["kernel-table", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "kernel-table-default.csv").read_bytes()


def test_kernel_table_out_naming_a_directory_writes_into_it(tmp_path):
    assert cli.main(["kernel-table", "--out", str(tmp_path)]) == 0
    assert [f.name for f in tmp_path.iterdir()] == ["kernel-table.csv"]
    written = (tmp_path / "kernel-table.csv").read_bytes()
    assert written == (GOLDEN / "kernel-table-default.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (["eigen-check", "--alpha", "1e300"], 2, "about 1e+300 bits"),
        # n past the float range, so the digit estimate overflows
        (["kernel-table", "--n", "1" + "0" * 400], 2, "have over 10**308 decimal digits"),
        (["solve", "--config", "cfg.json", "--K", str(10**200), "--out", "o"], 3,
         "= 2e+200 labels"),
    ],
    ids=["eigen-check-alpha-huge", "kernel-table-n-past-float-range", "solve-K-huge"],
)
def test_size_refusals_print_readable_numbers(argv, code, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    u0 = GOLDEN / "table-p3-n1-M2-ell1.json"
    (tmp_path / "cfg.json").write_text(json.dumps({"p": 3, "n": 1, "u0_spec": str(u0)}))
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200, err
    assert shown in err, err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("label", [10**244, -(10**243)], ids=["245-digits", "244-digits-negative"])
def test_a_label_too_long_for_a_file_name_exits_2_before_writing(label, tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["solve", f"--sweep={label}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "255 bytes" in err, err
    assert not out.exists()


def test_the_longest_label_a_file_name_holds_is_written(tmp_path):
    label = -(10**243 - 1)  # slice_L<label>.csv is 255 bytes
    assert cli.main(["solve", f"--sweep={label}", "--out", str(tmp_path)]) == 0
    assert len(f"slice_L{label}.csv") == 255
    assert (tmp_path / f"slice_L{label}.csv").is_file()


# every kind of field the commands write: floats as _fmt_float renders them,
# ints of up to the 4,300 digits Python converts to text, str(Fraction)
# coordinates (never negative), the empty num/den of a complex value, and the
# fixed words of the headers and rows
_CSV_FIELDS = (
    st.floats().map(cli._fmt_float)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]).map(cli._fmt_float)
    | st.integers(-(10**4300) + 1, 10**4300 - 1).map(str)
    | st.just("")
    | st.fractions(min_value=0).map(str)
    | st.integers(0, 10).map("x{}".format)
    | st.sampled_from(
        ["re", "im", "num", "den", "kind", "t_exp", "core", "shell", "p", "n", "K", "L", "M",
         "closed_num", "closed_den", "oracle_num", "oracle_den", "equal", "true", "false"]
    )
)
# every row the commands write has at least two fields (csv.writer quotes a
# row that is one empty field)
_CSV_ROWS = st.lists(_CSV_FIELDS, min_size=2, max_size=8)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=_CSV_ROWS, rows=st.lists(_CSV_ROWS, max_size=5))
def test_write_csv_writes_the_bytes_csv_writer_writes(header, rows, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_csv(got, header, (",".join(row) for row in rows))
    with open(want, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "p, width, M", [(97, 2, 1), (97, 2, 2), (3, 5, 2), (2, 6, -1), (5, 3, 0), (2, 7, 7)]
)
def test_coordinate_text_writes_what_str_of_the_fraction_writes(p, width, M):
    text, scale = cli._coordinate_text(p, M), Fraction(p) ** -M
    assert [text(a) for a in range(p**width)] == [str(a * scale) for a in range(p**width)]


def test_near_integer_exact_ratio_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": "1/3", "beta": "1000000000001/1000000000000"}))
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "not a positive integer" in capsys.readouterr().err
    # float orders keep the relative slack of 1e-9
    cfg.write_text(json.dumps({"alpha": 1 / 3, "beta": 1.000000000001}))
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["K"] == 3
    # a subnormal alpha makes the float ratio overflow to inf
    cfg.write_text(json.dumps({"alpha": 5e-324, "beta": 1.0}))
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )


def test_cli_import_leaves_the_fourier_layer_and_the_suite_unloaded():
    proc = _run_python(
        "import sys, padicwave.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('padicwave.')))"
    )
    loaded = proc.stdout
    assert "padicwave.solver" in loaded
    for module in (
        "padicwave.acceptance", "padicwave.vladimirov", "padicwave.fourier", "padicwave.phases"
    ):
        assert module not in loaded


def test_a_solve_keeps_no_table_once_its_problem_is_dropped():
    # the 15,625-coset problem of `solve --p 5 --n 2` at every auto-swept label, in a
    # fresh process so that no earlier test has filled a cache before tracing starts
    proc = _run_python(
        "import gc, tracemalloc\n"
        "from padicwave import cli, functions, solver\n"
        "tracemalloc.start()\n"
        "cfg = {key: setting[2] for key, setting in cli.SETTINGS.items()}\n"
        "prob = cli._build_problem({**cfg, 'p': 5, 'n': 2})\n"
        "for L in solver.auto_time_sweep(prob):\n"
        "    solver.solve_averaging(prob, L)\n"
        "del prob\n"
        "gc.collect()\n"
        "kept = tracemalloc.take_snapshot().filter_traces(\n"
        "    [tracemalloc.Filter(True, functions.__file__)])\n"
        "print(sum(trace.size for trace in kept.traces))\n"
    )
    assert int(proc.stdout) < 64 * 1024


def test_a_solve_leaves_no_grid_table_behind():
    # a radial 59,049-coset datum (p = 3, M = ell = 5) of zero mean, solved at every
    # auto-swept label; its grid's digit order and norms must go with the problem
    proc = _run_python(
        "import gc, tracemalloc\n"
        "from fractions import Fraction\n"
        "from padicwave import functions, lattice, solver\n"
        "from padicwave.padic import PrimeContext\n"
        "tracemalloc.start()\n"
        "ctx, shells = PrimeContext(3), tuple(map(Fraction, range(1, 11)))\n"
        "core = -functions.RadialShellFunction(ctx, 0, shells, -4).integrate(1) * 3**5\n"
        "u0 = functions.embed_radial(functions.RadialShellFunction(ctx, core, shells, -4), 5, 5)\n"
        "prob = solver.WaveProblem(ctx, 1, 1, 2, u0)\n"
        "for L in solver.auto_time_sweep(prob):\n"
        "    solver.solve_averaging(prob, L)\n"
        "print(len(u0.grid))\n"
        "del u0, prob\n"
        "gc.collect()\n"
        "kept = tracemalloc.take_snapshot().filter_traces(\n"
        "    [tracemalloc.Filter(True, lattice.__file__)])\n"
        "print(len(kept.traces))\n"
    )
    assert proc.stdout.split() == ["59049", "0"]


def test_checks_without_transforms_leave_the_operator_layers_unloaded():
    # each verify check runs in its own process on the bench; those that use
    # neither the transform nor the operator should not compile them
    proc = _run_python(
        "import sys\n"
        "from padicwave import acceptance\n"
        "assert acceptance.check_finite_dependence().passed\n"
        "assert acceptance.check_kernel_identity().passed\n"
        "print(sorted(m for m in sys.modules if m.startswith('padicwave.')))"
    )
    for module in ("padicwave.vladimirov", "padicwave.fourier", "padicwave.phases"):
        assert module not in proc.stdout


def test_operator_checks_leave_the_fourier_layer_unloaded():
    # the operator runs on coset averages; only the duality checks transform
    proc = _run_python(
        "import sys\n"
        "from padicwave import acceptance\n"
        "assert acceptance.check_eigenrelation().passed\n"
        "assert acceptance.check_time_pde().passed\n"
        "print(sorted(m for m in sys.modules if m.startswith('padicwave.')))"
    )
    assert "padicwave.vladimirov" in proc.stdout
    assert "padicwave.fourier" not in proc.stdout


@pytest.mark.parametrize("module", ["padicwave.cli", "padicwave.acceptance"])
def test_import_generates_no_dataclass_code(module):
    # a frozen dataclass execs its generated methods at every import
    proc = _run_python(f"import sys, {module}\nprint('dataclasses' in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_every_public_name_resolves():
    import padicwave
    from padicwave import fourier

    namespace = {}
    exec("from padicwave import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(padicwave.__all__)
    assert len(padicwave.__all__) == 58
    gone = {"padic_norm", "sphere_indicator", "subtract", "OperatorParams", "norm_exponent"}
    assert not gone & set(padicwave.__all__)
    assert padicwave.forward is fourier.forward
    with pytest.raises(AttributeError):
        padicwave.no_such_name


# JSON scalars for config values; text stays free of "/" so that a u0_spec
# read as a path names nothing outside the test's directory
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-20, 20)
    | st.floats(-20, 20)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(st.characters(exclude_characters="/"), max_size=6)
)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3)
_NUMBER_TEXT = (
    st.integers(-20, 20).map(str)
    | st.fractions(-20, 20, max_denominator=9).map(str)
    | st.floats(-20, 20).map(repr)
)
# built-in exponents near 0 and up to 10**5, where the data would outgrow a
# CSV cell and must be refused before anything is built
_EXPONENTS = st.integers(-50, 50) | st.integers(-(10**5), 10**5)
# orders of 400 digits overflow a float
_HUGE_ORDER = st.integers(10**399, 10**400 - 1)
# a coupling or a spatial order up to 10**300 makes time labels that no file
# name can hold, or more of them than the grid cap allows
_HUGE_K = st.integers(1, 10**300)
_HUGE_BETA = st.floats(1, 1e300)


def _mostly(plausible):
    """A plausible value three times in four, any JSON value otherwise."""
    return st.integers(0, 3).flatmap(lambda i: _VALUES if i == 0 else plausible)


_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "p": _mostly(st.sampled_from([2, 3, 5, 2**61 - 1]) | st.integers(2, 2**61)),
        "n": _mostly(st.sampled_from([1, 2]) | st.integers(1, 10**7)),
        "K": _mostly(st.integers(1, 3) | _HUGE_K),
        "alpha": _mostly(_NUMBER_TEXT | _HUGE_ORDER),
        "beta": _mostly(_NUMBER_TEXT | _HUGE_ORDER | _HUGE_BETA),
        "u0_spec": _mostly(
            st.builds("sphere-indicator {}".format, _EXPONENTS)
            | st.builds("eigen {} {}".format, _EXPONENTS, _NUMBER_TEXT)
        ),
        "sweep": _mostly(st.just("auto") | st.lists(st.integers(-20, 20), max_size=4)),
        "output": _VALUES,
        "profile_points": _mostly(
            st.lists(
                _NUMBER_TEXT | st.lists(_NUMBER_TEXT, min_size=2, max_size=2).map(",".join),
                max_size=2,
            )
        ),
        "seed": _mostly(st.integers(0, 2**32)),
    },
)


@settings(
    max_examples=200,
    # every refusal is made before anything is built, so each example is quick
    deadline=timedelta(seconds=1),
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(doc=_CONFIGS)
def test_any_config_ends_in_a_documented_exit_code(doc, tmp_path, monkeypatch):
    monkeypatch.setenv("PADICWAVE_GRID_CAP", "64")
    monkeypatch.chdir(tmp_path)
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg = run / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["solve", "--config", str(cfg), "--out", str(run / "out")])
    assert code in (0, 2, 3, 4)
