"""Command-line interface: literals, subcommands, exit codes, CSV scans."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tomobell
from tomobell.cli import format_complex, main, parse_complex
from tomobell.errors import InvalidParameter

SQUEEZED_DOC = {
    "type": "gaussian",
    "M": [
        [3.0, math.sqrt(35) / 2, 0.0, 0.0],
        [math.sqrt(35) / 2, 3.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, math.sqrt(3) / 2],
        [0.0, 0.0, math.sqrt(3) / 2, 1.0],
    ],
}


@pytest.fixture
def squeezed_file(tmp_path):
    path = tmp_path / "squeezed.json"
    path.write_text(json.dumps(SQUEEZED_DOC))
    return str(path)


@pytest.fixture
def cat_file(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"type": "cat", "gamma1": [0, 0], "gamma2": [0, 0]}))
    return str(path)


@pytest.fixture
def coherent_file(tmp_path):
    path = tmp_path / "coh.json"
    path.write_text(json.dumps({"type": "coherent", "gamma1": 0.5, "gamma2": 0.5}))
    return str(path)


# --- complex literal grammar --------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5 + 0j
    assert parse_complex("-2") == -2 + 0j
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("-0.12i") == -0.12j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-1.5-0.5i") == -1.5 - 0.5j
    assert parse_complex("1e-3+2.5e-1i") == 0.001 + 0.25j


def test_parse_complex_rejects_malformed():
    for bad in ("1+i2", "i", "1 + 2i", "2j", "abc", "1+2", "--1", "1++2i"):
        with pytest.raises(InvalidParameter):
            parse_complex(bad)


def test_format_complex_roundtrips():
    for z in (1.5 + 0j, -0.12j, 0.25 - 0.75j, 0j):
        assert parse_complex(format_complex(z)) == z


# --- tomogram ------------------------------------------------------------------


def test_tomogram_vacuum_prints_one(cat_file, capsys):
    rc = main(["tomogram", "--state", cat_file, "--n1", "0", "--n2", "0",
               "--alpha1", "0", "--alpha2", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_tomogram_malformed_literal_exits_2(cat_file, capsys):
    rc = main(["tomogram", "--state", cat_file, "--n1", "0", "--n2", "0",
               "--alpha1", "1+i2", "--alpha2", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidParameter]:")
    assert err.count("\n") == 1


def test_tomogram_missing_state_file_exits_2(capsys):
    rc = main(["tomogram", "--state", "/nonexistent/state.json", "--n1", "0",
               "--n2", "0", "--alpha1", "0", "--alpha2", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[")


def test_tomogram_consistent_with_portrait_cell(squeezed_file, capsys):
    rc = main(["tomogram", "--state", squeezed_file, "--n1", "0", "--n2", "0",
               "--alpha1", "-0.12i", "--alpha2", "0.04i"])
    assert rc == 0
    w00 = float(capsys.readouterr().out.strip())
    rc = main(["portrait", "--state", squeezed_file, "--partition", "even-odd",
               "--alpha1", "-0.12i", "--alpha2", "0.04i"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    w_pp = float(out[0].split()[1])
    # the vacuum cell is one member of the even-even portrait cell
    assert 0.0 < w00 < w_pp


# --- portrait -------------------------------------------------------------------


def test_portrait_matches_printed_column(squeezed_file, capsys):
    rc = main(["portrait", "--state", squeezed_file, "--partition", "even-odd",
               "--alpha1", "-0.12i", "--alpha2", "0.04i"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    values = [float(l.split()[1]) for l in lines[:4]]
    printed = [0.6199, 0.0222, 0.0241, 0.3335]
    assert np.max(np.abs(np.array(values) - printed)) < 5e-3
    assert lines[4].startswith("tail_deficit ")


def test_portrait_tail_too_large_exits_3(squeezed_file, capsys):
    rc = main(["portrait", "--state", squeezed_file, "--partition", "even-odd",
               "--alpha1", "-0.12i", "--alpha2", "0.04i",
               "--nmax", "5", "--tail-eps", "1e-8"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[TailTooLarge]:")


def test_portrait_vacuum_zero_nonzero(cat_file, capsys):
    rc = main(["portrait", "--state", cat_file, "--partition", "zero-nonzero",
               "--alpha1", "0", "--alpha2", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    values = [float(l.split()[1]) for l in lines[:4]]
    assert values == pytest.approx([1, 0, 0, 0], abs=1e-12)


def test_portrait_truncation_flags_select_the_path(squeezed_file, capsys):
    base = ["portrait", "--state", squeezed_file, "--partition", "even-odd",
            "--alpha1", "-0.12i", "--alpha2", "0.04i"]
    assert main(base) == 0
    assert capsys.readouterr().out.splitlines()[4] == "tail_deficit 0"
    assert main(base + ["--nmax", "30"]) == 0
    deficit = float(capsys.readouterr().out.splitlines()[4].split()[1])
    assert 0.0 < deficit <= 1e-4
    # the path follows from the flags; there is no switch to name it
    assert main(base + ["--method", "closed"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[Usage]:")
    assert err.count("\n") == 1


# --- bell -----------------------------------------------------------------------


def test_bell_reproduces_worked_example(squeezed_file, capsys):
    rc = main(["bell", "--state", squeezed_file, "--partition", "even-odd",
               "--alpha1", "-0.12i", "--alpha2", "0.04i",
               "--beta1", "0.22i", "--beta2", "-0.32i", "--nmax", "30"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    b_line = [l for l in lines if l.startswith("B ")][0]
    assert abs(float(b_line.split()[1]) - 2.26) < 0.02
    verdict = [l for l in lines if l.startswith("verdict ")][0]
    assert verdict.split()[1] == "ENTANGLED-WITNESSED"


def test_bell_outside_box_strict_exits_2(squeezed_file, capsys):
    rc = main(["bell", "--state", squeezed_file, "--partition", "even-odd",
               "--alpha1", "2.5", "--alpha2", "0.04i",
               "--beta1", "0.22i", "--beta2", "-0.32i",
               "--box", "2"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error[InvalidParameter]: --alpha1 = 2.5+0i lies outside the box "
        "|Re|,|Im| <= 2 (strict box enforcement)\n")


def test_settings_inside_the_box_print_the_same_bytes(squeezed_file, capsys):
    base = ["bell", "--state", squeezed_file, "--partition", "even-odd",
            "--alpha1", "-0.12i", "--alpha2", "0.04i", "--beta1", "0.22i", "--beta2", "-0.32i"]
    assert main(base) == 0
    unboxed = capsys.readouterr()
    assert main(base + ["--box", "2"]) == 0
    assert capsys.readouterr() == unboxed


@pytest.mark.parametrize("box", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [
    ["tomogram", "--state", "STATE", "--n1", "0", "--n2", "0", "--alpha1", "0", "--alpha2", "0"],
    ["portrait", "--state", "STATE", "--alpha1", "0", "--alpha2", "0"],
    ["bell", "--state", "STATE", "--alpha1", "5", "--alpha2", "0", "--beta1", "0", "--beta2", "0"],
    ["maximize", "--state", "STATE", "--starts", "2"],
    ["scan", "--preset", "cat-even-odd", "--param1", "1", "--param2", "1", "--starts", "2"],
])
def test_bad_box_exits_2(cat_file, capsys, command, box):
    # --box nan once let every setting through, and --box -1 refused all
    rc = main([cat_file if a == "STATE" else a for a in command] + ["--box", box])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[InvalidParameter]: box must be a positive number")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["maximize", "--state", "STATE", "--nmax", "30"],
    ["scan", "--preset", "cat-even-odd", "--tail-eps", "1e-4"],
    ["bell", "--state", "STATE", "--alpha1", "0", "--alpha2", "0", "--beta1", "0",
     "--beta2", "0", "--box-enforce", "strict"],
])
def test_removed_flags_are_usage_errors(cat_file, capsys, command):
    # maximize and scan never read --nmax or --tail-eps (every state and
    # partition they take has a closed form); --box alone now checks settings
    rc = main([cat_file if a == "STATE" else a for a in command])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[Usage]:")
    assert captured.err.count("\n") == 1


def test_bell_coherent_separable(coherent_file, capsys):
    rc = main(["bell", "--state", coherent_file, "--partition", "zero-nonzero",
               "--alpha1", "0.3+0.1i", "--alpha2", "-0.2i",
               "--beta1", "0.5", "--beta2", "0.1-0.4i"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    b = float([l for l in lines if l.startswith("B ")][0].split()[1])
    assert b <= 2.0 + 1e-9


# --- maximize --------------------------------------------------------------------


def test_maximize_coherent_product(coherent_file, capsys):
    rc = main(["maximize", "--state", coherent_file, "--partition", "even-odd",
               "--starts", "8", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    f = float(lines[0].split()[1])
    assert f <= 2.0 + 1e-6
    assert any(l.startswith("evaluations ") for l in lines)


def test_maximize_prints_converged_starts(coherent_file, capsys):
    rc = main(["maximize", "--state", coherent_file, "--partition", "even-odd",
               "--starts", "4", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    names = [l.split()[0] for l in lines]
    assert names == ["f", "alpha1", "alpha2", "beta1", "beta2", "verdict", "margin",
                     "evaluations", "starts", "converged"]
    assert lines[-2] == "starts 4 failed 0"
    assert lines[-1] == "converged 4"
    # a budget of one value-and-gradient call stops every start unconverged
    rc = main(["maximize", "--state", coherent_file, "--partition", "even-odd",
               "--starts", "4", "--seed", "3", "--max-iters", "1"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == "converged 0"


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--starts", "0"), ("--max-iters", "0")])
def test_maximize_bad_integer_setting_exits_2(coherent_file, capsys, flag, value):
    rc = main(["maximize", "--state", coherent_file, "--partition", "even-odd",
               "--starts", "2", flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidParameter]:")
    assert "non-negative integer" not in err


# --- scan -----------------------------------------------------------------------


def test_scan_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["scan", "--preset", "cat-even-odd", "--param1", "0,1",
            "--param2", "1", "--starts", "4", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a = out1.read_bytes()
    assert a == out2.read_bytes()
    lines = a.decode().splitlines()
    assert lines[0].startswith("param1,param2,f,argmax")
    assert len(lines) == 3
    assert lines[1].startswith("0.0,1.0,")
    assert lines[2].startswith("1.0,1.0,")
    # gamma1 = 0 is a separable product state; gamma1 = 1 is entangled
    row0 = lines[1].split(",")
    row1 = lines[2].split(",")
    assert float(row0[2]) <= 2.0 + 1e-6
    assert float(row1[2]) > 2.0


def test_scan_jobs_agree_with_serial(tmp_path):
    base = ["scan", "--preset", "cat-even-odd", "--param1", "1",
            "--param2", "0,1", "--starts", "3", "--seed", "2"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_scan_starts_no_more_workers_than_grid_points(tmp_path, monkeypatch):
    # a stand-in pool records its size and maps in this process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    base = ["scan", "--preset", "cat-even-odd", "--param2", "1", "--starts", "2", "--seed", "2"]
    for param1, jobs, size in (("0,1,2", "8", [3]), ("0,1,2", "2", [2]), ("1", "8", [])):
        serial = tmp_path / f"serial-{param1}.csv"
        pooled = tmp_path / f"pooled-{param1}-{jobs}.csv"
        assert main(base + ["--param1", param1, "--out", str(serial)]) == 0
        sizes.clear()
        assert main(base + ["--param1", param1, "--jobs", jobs, "--out", str(pooled)]) == 0
        assert sizes == size
        assert pooled.read_bytes() == serial.read_bytes()


def test_scan_error_rows_continue(tmp_path):
    import csv

    out = tmp_path / "err.csv"
    rc = main(["scan", "--preset", "cat-even-odd", "--param1", "nan,1",
               "--param2", "1", "--starts", "3", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    header, bad, good = rows
    assert header[-1] == "error"
    assert bad[2] == ""  # no f value for the failed point
    assert bad[-1] != "" and ":" in bad[-1]
    assert float(good[2]) > 2.0


def test_scan_empty_grid_exits_2(capsys):
    rc = main(["scan", "--preset", "cat-even-odd", "--param1", ""])
    assert rc == 2
    assert "empty" in capsys.readouterr().err


def test_scan_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--preset", "cat-even-odd", "--param1", "0,1", "--param2", "1",
               "--starts", "2", "--seed", "-1", "--jobs", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[InvalidParameter]: seed must be >= 0")
    assert not out.exists()


def test_scan_unknown_preset_exits_2(capsys):
    rc = main(["scan", "--preset", "nope"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[Usage]:")


@pytest.mark.parametrize("command, doc", [
    (["tomogram", "--n1", "0", "--n2", "0"], {"type": "cat", "gamma1": math.nan, "gamma2": [1, 0]}),
    (["portrait"], {"type": "cat", "gamma1": math.nan, "gamma2": [1, 0]}),
    (["maximize", "--starts", "2"], {"type": "coherent", "gamma1": math.inf, "gamma2": 0.5}),
])
def test_non_finite_amplitude_exits_2(tmp_path, capsys, command, doc):
    # json writes and reads NaN and Infinity; such a state is a bad input
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    settings = [] if command[0] == "maximize" else ["--alpha1", "0", "--alpha2", "0"]
    rc = main(command + ["--state", str(path)] + settings)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[InvalidParameter]: gamma1 must be a finite number")
    assert captured.err.count("\n") == 1


def test_bool_in_state_file_exits_2(tmp_path, capsys):
    # json reads true as True, which once passed as the amplitude 1.0
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"type": "cat", "gamma1": True, "gamma2": [1, 0]}))
    rc = main(["tomogram", "--state", str(path), "--n1", "0", "--n2", "0",
               "--alpha1", "0", "--alpha2", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[ValueError]: gamma1 must be a number, got True\n"


def test_usage_error_single_line(capsys):
    rc = main(["portrait", "--no-such-flag"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[Usage]:")
    assert err.count("\n") == 1


# --- import cost ---------------------------------------------------------------


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; the package and its CLI run without it
    src = str(Path(tomobell.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, tomobell, tomobell.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_maximize_loads_neither_scipy_nor_mpmath(coherent_file):
    # both are test oracles; a whole maximize run must not import them
    src = str(Path(tomobell.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, contextlib, io, tomobell.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = tomobell.cli.main(['maximize', '--state', {coherent_file!r}, '--starts', '2'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only scan --jobs > 1 uses a process pool; every other command, and
    # the benchmark that imports the CLI, starts without its modules
    src = str(Path(tomobell.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, tomobell.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
