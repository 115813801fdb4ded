"""Command-line interface: literals, subcommands, exit codes, CSV scans."""

import json
import math
import os
import select
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import tomobell
from tomobell import MaximizeConfig
from tomobell.cli import build_parser, format_complex, main, parse_complex
from tomobell.errors import InvalidParameter

from oracles import SQUEEZED_M

SQUEEZED_DOC = {"type": "gaussian", "M": SQUEEZED_M.tolist()}


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


def test_parse_complex_refuses_a_literal_that_overflows():
    for bad in ("1e400", "-1e400i", "1+1e999i", "1e309-0.5i"):
        with pytest.raises(InvalidParameter, match="must be a finite number"):
            parse_complex(bad)
    assert parse_complex("1e308-1e-320i") == complex(1e308, -1e-320)


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


@pytest.mark.parametrize("n1, n2", [("-1", "0"), ("0", "-1")])
def test_tomogram_negative_count_exits_2(cat_file, capsys, n1, n2):
    rc = main(["tomogram", "--state", cat_file, "--n1", n1, "--n2", n2,
               "--alpha1", "0", "--alpha2", "0"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[")
    assert err.count("\n") == 1


def test_tomogram_prints_the_library_scalar_past_the_float_range(tmp_path, capsys):
    # (20 + 1)^60 (20 + 1)^60 overflows a float: the paper's closed product,
    # evaluated directly, leaves the float range here
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"type": "cat", "gamma1": 1, "gamma2": 1}))
    rc = main(["tomogram", "--state", str(path), "--n1", "60", "--n2", "60",
               "--alpha1", "20", "--alpha2", "20"])
    assert rc == 0
    want = tomobell.cat_tomogram(tomobell.CatState(1, 1), 60, 60, 20, 20)
    assert capsys.readouterr().out == f"{want:.12f}\n"


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


# --- non-finite and huge inputs --------------------------------------------------

STATE_DOCS = {
    "cat": {"type": "cat", "gamma1": [1.0, 0.0], "gamma2": [1.0, 0.0]},
    "coherent": {"type": "coherent", "gamma1": 0.5, "gamma2": [0.0, 0.5]},
    "gaussian": {"type": "gaussian_family", "k": 0.9, "l": 0.04},
    "huge-cat": {"type": "cat", "gamma1": 1e200, "gamma2": [1.0, 0.0]},
}

SETTINGS_ARGS = {
    "tomogram": ["--n1", "1", "--n2", "0", "--alpha2", "0"],
    "portrait": ["--alpha2", "0"],
    "bell": ["--alpha2", "0", "--beta1", "0", "--beta2", "0"],
}


def _run_on(tmp_path, kind, command, extra):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(STATE_DOCS[kind]))
    # a numpy warning would print lines of its own before the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main([command, "--state", str(path)] + extra)


@pytest.mark.parametrize("kind", ["cat", "coherent", "gaussian"])
@pytest.mark.parametrize("command", ["tomogram", "portrait", "bell"])
def test_non_finite_literal_exits_2(tmp_path, capsys, kind, command):
    # 1e400 reads as an infinity: tomogram printed nan, and portrait the
    # portrait of an infinite displacement, both with exit 0
    rc = _run_on(tmp_path, kind, command, SETTINGS_ARGS[command] + ["--alpha1", "1e400"])
    assert rc == 2
    assert capsys.readouterr() == ("", "error[InvalidParameter]: complex literal '1e400' "
                                       "must be a finite number, got (inf+0j)\n")


OVERFLOW_TEXT = "a finite input is too large for float arithmetic"


@pytest.mark.parametrize("kind, command, extra, case", [
    *[(kind, command, SETTINGS_ARGS[command] + ["--alpha1", "1e200"], "OverflowError")
      for kind in ("cat", "coherent") for command in ("tomogram", "portrait", "bell")],
    ("huge-cat", "tomogram", SETTINGS_ARGS["tomogram"] + ["--alpha1", "0"], "OverflowError"),
    ("huge-cat", "portrait", SETTINGS_ARGS["portrait"] + ["--alpha1", "0"], "OverflowError"),
    ("cat", "maximize", ["--box", "1e200", "--starts", "2"], "OverflowError"),
    ("gaussian", "tomogram", SETTINGS_ARGS["tomogram"] + ["--alpha1", "1e200"],
     "NumericalNegativity"),
    ("gaussian", "portrait", ["--nmax", "5", "--alpha2", "0", "--alpha1", "1e200"],
     "NumericalNegativity"),    # sqrt(2) times the displacement overflows: numpy warned of it first
    ("gaussian", "tomogram", SETTINGS_ARGS["tomogram"] + ["--alpha1", "1.5e308"],
     "NumericalNegativity"),
])
def test_huge_finite_inputs_exit_3_on_one_line(tmp_path, capsys, kind, command, extra, case):
    # squares of 1e200 leave the float range: these printed a traceback
    # and exited 1, or printed numpy warnings before the error line
    rc = _run_on(tmp_path, kind, command, extra)
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error[{case}]: ")
    assert err.count("\n") == 1
    if case == "OverflowError":
        # not the errno tuple or "math range error" of Python's own message
        assert err == f"error[OverflowError]: {OVERFLOW_TEXT}\n"


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


@pytest.mark.parametrize("argv", [["maximize", "--state", "x"], ["scan", "--preset", "cat-even-odd"]])
def test_search_flags_default_to_the_config_fields(argv):
    args, cfg = build_parser().parse_args(argv), MaximizeConfig()
    for field in ("box", "starts", "seed", "max_iters"):
        value, default = getattr(args, field), getattr(cfg, field)
        assert value == default and type(value) is type(default), field


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
    # this process takes grid points too, so --jobs N forks at most N - 1
    # workers, and no more than the grid has points besides its own
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    base = ["scan", "--preset", "cat-even-odd", "--param2", "1", "--starts", "2", "--seed", "2"]
    for param1, jobs, count in (("0,1,2", "8", 2), ("0,1,2", "2", 1), ("1", "8", 0)):
        serial = tmp_path / f"serial-{param1}.csv"
        forked = tmp_path / f"forked-{param1}-{jobs}.csv"
        assert main(base + ["--param1", param1, "--out", str(serial)]) == 0
        forks.clear()
        assert main(base + ["--param1", param1, "--jobs", jobs, "--out", str(forked)]) == 0
        assert len(forks) == count
        assert forked.read_bytes() == serial.read_bytes()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bad", [{2}, {1, 3}], ids=["one-point", "two-points"])
def test_scan_worker_exception_is_the_serial_error(monkeypatch, capsys, bad):
    # forked workers inherit the patch; whichever process runs a bad point,
    # the scan stops with the error of the first bad point in grid order,
    # also when a later one fails first
    def point(preset_name, partition, p1, p2, cfg_fields):
        if p1 in bad:
            if p1 == min(bad) and len(bad) > 1:
                time.sleep(0.2)
            raise ValueError(f"bad point {p1:g}")
        return [repr(float(p1)), repr(float(p2))] + [""] * 11

    monkeypatch.setattr("tomobell.cli._scan_point", point)
    base = ["scan", "--preset", "cat-even-odd", "--param1", "0,1,2,3,4", "--param2", "1"]
    errors = []
    for jobs in ("1", "2", "3"):
        assert main(base + ["--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        errors.append(captured.err)
    assert errors == [f"error[ValueError]: bad point {min(bad)}\n"] * 3
    _no_child_left()


def test_scan_workers_stop_taking_points_after_an_exception(tmp_path, monkeypatch, capsys):
    # as a serial scan stops at its first exception, the worker that hits
    # one empties the hand-out pipe, and the other finishes its point and
    # stops: a few of the 200 points run, not all of them
    log = tmp_path / "points.log"

    def point(preset_name, partition, p1, p2, cfg_fields):
        with open(log, "a") as fh:
            fh.write(f"{p1:g}\n")
        if p1 == 1:
            raise ValueError("bad point 1")
        time.sleep(0.01)
        return [repr(float(p1)), repr(float(p2))] + [""] * 11

    monkeypatch.setattr("tomobell.cli._scan_point", point)
    grid = ",".join(str(i) for i in range(200))
    assert main(["scan", "--preset", "cat-even-odd", "--param1", grid, "--param2", "1",
                 "--jobs", "2"]) == 2
    assert capsys.readouterr().err == "error[ValueError]: bad point 1\n"
    taken = log.read_text().split()
    assert "1" in taken and len(taken) < 50
    _no_child_left()


def test_scan_worker_that_dies_without_a_result_exits_2(monkeypatch, capsys):
    # a worker killed mid-scan sends no rows: the scan fails, and every
    # worker is reaped. This process holds its first point until a worker
    # has taken one and died.
    parent = os.getpid()
    died_r, died_w = os.pipe()
    held = []

    def point(preset_name, partition, p1, p2, cfg_fields):
        if os.getpid() != parent:
            os.write(died_w, b"x")
            os._exit(3)
        if not held:
            held.append(select.select([died_r], [], [], 30.0)[0])
        return [repr(float(p1)), repr(float(p2))] + [""] * 11

    monkeypatch.setattr("tomobell.cli._scan_point", point)
    try:
        rc = main(["scan", "--preset", "cat-even-odd", "--param1", "0,1,2", "--param2", "1",
                   "--jobs", "2"])
    finally:
        os.close(died_r)
        os.close(died_w)
    assert held == [[died_r]]
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[ChildProcessError]: scan worker ")
    assert captured.err.count("\n") == 1
    _no_child_left()


def test_scan_unwritable_out_fails_before_the_grid_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("tomobell.cli._scan_point", lambda *task: calls.append(task))
    rc = main(["scan", "--preset", "gaussian-family", "--param1", "0.6,1.0",
               "--param2", "0.0,0.07", "--starts", "20",
               "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[FileNotFoundError]: ")
    assert err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("jobs, error", [("1", ValueError), ("2", ValueError),
                                         ("1", KeyboardInterrupt)])
def test_scan_that_fails_leaves_an_existing_out_file(tmp_path, monkeypatch, capsys, jobs, error):
    # the file was opened with "w" before the grid ran, so a failed or
    # interrupted scan left it empty
    def point(preset_name, partition, p1, p2, cfg_fields):
        if p1 == 1:
            raise error("bad point 1")
        return [repr(float(p1)), repr(float(p2))] + [""] * 11

    monkeypatch.setattr("tomobell.cli._scan_point", point)
    out = tmp_path / "scan.csv"
    out.write_bytes(b"param1,param2\n0.5,0.5\n")
    argv = ["scan", "--preset", "cat-even-odd", "--param1", "0,1,2", "--param2", "1",
            "--jobs", jobs, "--out", str(out)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == "error[ValueError]: bad point 1\n"
    assert out.read_bytes() == b"param1,param2\n0.5,0.5\n"
    _no_child_left()


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


def test_scan_overflow_fails_only_its_own_row(tmp_path):
    # gamma1 = 1e200 overflows |gamma|^2: this stopped the whole scan with
    # exit 3 and no rows, at every --jobs
    import csv

    base = ["scan", "--preset", "cat-even-odd", "--param2", "0", "--starts", "2"]
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}.csv"
        assert main(base + ["--param1", "0.5,1e200", "--jobs", jobs,
                            "--out", str(outs[jobs])]) == 0
    assert outs["1"].read_bytes() == outs["2"].read_bytes()
    alone = tmp_path / "alone.csv"
    assert main(base + ["--param1", "0.5", "--out", str(alone)]) == 0
    with open(outs["1"], newline="") as fh:
        header, good, bad = csv.reader(fh)
    with open(alone, newline="") as fh:
        assert list(csv.reader(fh)) == [header, good]
    assert bad[:2] == ["1e+200", "0.0"]
    assert bad[2:-1] == [""] * (len(header) - 3)
    assert bad[-1] == f"OverflowError: {OVERFLOW_TEXT}"


@pytest.mark.parametrize("flags, message", [
    (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["--param1", "a,b"], "--param1 must be a comma-separated list of reals, got 'a,b'"),
])
def test_scan_bad_jobs_or_grid_exits_2(monkeypatch, capsys, flags, message):
    calls = []
    monkeypatch.setattr("tomobell.cli._scan_point", lambda *task: calls.append(task))
    rc = main(["scan", "--preset", "cat-even-odd", "--starts", "2"] + flags)
    assert rc == 2
    assert capsys.readouterr() == ("", f"error[InvalidParameter]: {message}\n")
    assert calls == []


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

SRC = Path(tomobell.__file__).resolve().parent.parent


def _process_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; the package and its CLI run without it
    code = (
        "import sys, tomobell, tomobell.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_process_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_maximize_loads_neither_scipy_nor_mpmath(coherent_file):
    # both are test oracles; a whole maximize run must not import them
    code = (
        "import sys, contextlib, io, tomobell.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = tomobell.cli.main(['maximize', '--state', {coherent_file!r}, '--starts', '2'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_process_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"


def test_cli_import_leaves_the_process_pool_unloaded():
    # the CLI forks its scan workers itself; no command, nor the benchmark
    # that imports the CLI, loads the process pool's modules
    code = "import sys, tomobell.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_process_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command, unloaded", [
    (["maximize", "--starts", "2"], ["numpy.random"]),
    (["scan", "--preset", "cat-even-odd", "--param1", "0,1", "--param2", "1",
      "--starts", "2", "--jobs", "2"], ["numpy.random", "concurrent.futures", "multiprocessing"]),
], ids=["maximize", "scan-jobs-2"])
def test_runs_load_neither_numpy_random_nor_a_process_pool(coherent_file, command, unloaded):
    # start points come from the package's own generator, and scan
    # workers are forked directly: neither pays for those imports
    if command[0] == "maximize":
        command = command + ["--state", coherent_file]
    code = (
        "import sys, contextlib, io, tomobell.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = tomobell.cli.main({command!r})\n"
        f"print(rc, [m for m in {unloaded!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_process_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"


# the benchmark's scan-cli command line: the 4 corners of the preset's grid
SCAN_CORNERS = ["scan", "--preset", "gaussian-family", "--param1", "0.6,1.0",
                "--param2", "0.0,0.07", "--starts", "3", "--seed", "5"]


def _cli_process(argv):
    return subprocess.run([sys.executable, "-m", "tomobell.cli"] + argv, env=_process_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_process_writes_the_bytes_of_main(capsys, jobs):
    # a process ends through run(), which freezes the collector before the
    # interpreter exits: its output is flushed all the same
    argv = SCAN_CORNERS + ["--jobs", jobs]
    assert main(argv) == 0
    want = capsys.readouterr().out
    got = _cli_process(argv)
    assert (got.returncode, got.stdout, got.stderr) == (0, want, "")
    assert len(want.splitlines()) == 5


@pytest.mark.parametrize("argv, code, line", [
    (["scan", "--preset", "cat-even-odd", "--jobs", "0"], 2,
     "error[InvalidParameter]: --jobs must be >= 1, got 0\n"),
    (["tomogram", "--state", "STATE", "--n1", "1", "--n2", "0", "--alpha1", "1e200",
      "--alpha2", "0"], 3, f"error[OverflowError]: {OVERFLOW_TEXT}\n"),
], ids=["exit-2", "exit-3"])
def test_cli_process_keeps_exit_codes_and_error_lines(tmp_path, capsys, argv, code, line):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(STATE_DOCS["cat"]))
    argv = [str(path) if a == "STATE" else a for a in argv]
    assert main(argv) == code
    assert capsys.readouterr() == ("", line)
    got = _cli_process(argv)
    assert (got.returncode, got.stdout, got.stderr) == (code, "", line)


def test_only_the_process_entry_freezes_the_collector(cat_file):
    # a freeze in main() would keep this test process's cyclic garbage
    # alive for the rest of its life
    import gc

    frozen = gc.get_freeze_count()
    argv = ["tomogram", "--state", cat_file, "--n1", "0", "--n2", "0", "--alpha1", "0",
            "--alpha2", "0"]
    assert main(argv) == 0
    assert gc.get_freeze_count() == frozen
    code = (
        "import gc, sys, tomobell.cli\n"
        f"sys.argv = ['tomobell'] + {argv!r}\n"
        "rc = tomobell.cli.run()\n"
        "print(rc, gc.get_freeze_count() > 0)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_process_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 True"


def test_installed_script_and_module_run_the_same_entry():
    tomllib = pytest.importorskip("tomllib")
    import ast

    import tomobell.cli

    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tomobell"]
    module, name = target.split(":")
    assert module == "tomobell.cli"
    tree = ast.parse(Path(tomobell.cli.__file__).read_text())
    block = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(block) == 1
    called = {node.func.id for node in ast.walk(block[0])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {name}
