import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdchan as td
from tdchan import entropy, spectrum
from tdchan.cli import main
from tdchan.serialize import density_from_obj, density_to_obj, fmt_float, to_json

from oracles import to_json_recursive


# ------------------------------------------------------------------ serialize


def test_fmt_float_roundtrip():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0):
        assert float(fmt_float(x)) == x
    assert fmt_float(float("nan")) == "NaN"


def test_to_json_shapes():
    s = to_json({"a": [1.0, 2.5], "b": {"c": None}})
    assert json.loads(s) == {"a": [1.0, 2.5], "b": {"c": None}}


_json_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, float("nan"), float("-inf")])
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | _json_floats
    | st.text()
    | _json_floats.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.lists(_json_floats, max_size=4).map(np.array)
    | st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5) | st.integers(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_to_json_matches_the_recursive_encoder(value):
    # Exact-type dispatch first, isinstance fallback for numpy scalars,
    # arrays and tuples: the bytes of the one-recursion encoder.
    assert to_json(value) == to_json_recursive(value)


def test_density_obj_roundtrip():
    rho = td.pure_state(np.array([1.0, 1.0j]) / math.sqrt(2.0))
    obj = density_to_obj(rho)
    back = density_from_obj(obj)
    assert np.max(np.abs(back.mat - rho.mat)) < 1e-15
    from tdchan.errors import BadDimension

    with pytest.raises(BadDimension):
        density_from_obj({"dim": 2, "rows": [[1.0, 0.0]]})


# ------------------------------------------------------------------- commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_command(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--d", "3", "--t", "-0.5", "--lambda", "1,0,0")
    assert code == 0
    rec = json.loads(out)
    assert sorted(rec["offdiag"]) == pytest.approx([0, 0, 0, 0, 0.25, 0.25], abs=1e-12)
    assert rec["secular"] == pytest.approx([0.25, 0.25, 0.0], abs=1e-12)
    assert rec["dense_delta"] < 1e-9


def test_spectrum_command_tol_failure(capsys):
    # dense_delta is a maximum of absolute differences, so no input meets a
    # negative tolerance; the closed form may agree with eigvalsh exactly.
    code, out, _ = run_cli(
        capsys, "spectrum", "--d", "3", "--t", "-0.5", "--lambda", "1,0,0", "--tol=-1e-18"
    )
    assert code == 1
    assert json.loads(out)["dense_delta"] > -1e-18


def test_spectrum_command_bad_lambda(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--d", "3", "--t", "-0.5", "--lambda", "1,0,0.1")
    assert code == 3
    assert "error:" in err


def test_entropy_command_and_log_base(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--d", "3", "--t", "-0.5", "--lambda", "1,0,0")
    assert code == 0
    rec = json.loads(out)
    assert rec["s_total"] == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    code, out, _ = run_cli(
        capsys, "entropy", "--d", "3", "--t", "-0.5", "--lambda", "1,0,0", "--log-base", "2"
    )
    assert code == 0
    rec2 = json.loads(out)
    assert rec2["s_total"] == pytest.approx(2.0, abs=1e-12)
    assert rec2["s1"] == pytest.approx(1.0, abs=1e-12)
    assert rec2["c"] == pytest.approx(0.5)  # a mass, not an entropy: unscaled


def test_apply_command(tmp_path, capsys):
    rho = td.pure_state(np.eye(3)[0])
    path = tmp_path / "rho.json"
    path.write_text(to_json(density_to_obj(rho)))
    code, out, _ = run_cli(capsys, "apply", "--d", "3", "--t", "-0.5", "--input", str(path))
    assert code == 0
    got = density_from_obj(json.loads(out))
    assert np.allclose(np.diag(got.mat).real, [0.0, 0.5, 0.5], atol=1e-12)


def test_apply_command_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "apply", "--d", "3", "--t", "-0.5", "--input", str(path))
    assert code == 2
    assert "error:" in err


def test_apply_command_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "apply", "--d", "3", "--t", "-0.5", "--input", str(tmp_path / "none.json")
    )
    assert code == 2


def test_apply_command_undecodable_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 2, "rows": "\xe9"}')
    code, out, err = run_cli(capsys, "apply", "--d", "2", "--t", "-0.5", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot read")


def test_apply_command_closed_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run_cli(capsys, "apply", "--d", "2", "--t", "-0.5", "--input", "-")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot read -")


def test_apply_command_invalid_state(tmp_path, capsys):
    obj = {"dim": 2, "rows": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "apply", "--d", "2", "--t", "-0.5", "--input", str(path))
    assert code == 3


def _apply_entry(tmp_path, capsys, entry: str):
    text = '{"dim": 2, "rows": [[[%s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}' % entry
    path = tmp_path / "rho.json"
    path.write_text(text)
    return run_cli(capsys, "apply", "--d", "2", "--t", "-0.5", "--input", str(path))


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_apply_command_non_finite_entry_exit_3(tmp_path, capsys, entry):
    code, out, err = _apply_entry(tmp_path, capsys, entry)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("entry", ['"a"', '"0.5"', "null", "true", "[0.5]"])
def test_apply_command_non_numeric_entry_exit_3(tmp_path, capsys, entry):
    code, out, err = _apply_entry(tmp_path, capsys, entry)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_min_entropy_command(capsys):
    code, out, _ = run_cli(capsys, "min-entropy", "--d", "3", "--t", "-0.5", "--restarts", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["h"] == pytest.approx(rec["h_closed_form"], abs=1e-6)
    arg = np.array(rec["argmin_re"]) + 1j * np.array(rec["argmin_im"])
    assert np.linalg.norm(arg) == pytest.approx(1.0, abs=1e-9)


def test_additivity_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "additivity",
        "--d", "2", "--t=-1:0:3", "--restarts", "3", "--n-random", "20",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["t"] for r in rows] == pytest.approx([-1.0, -0.5, 0.0])
    for r in rows:
        assert r["gap"] >= -1e-6
    # frozen spot: h(2, -1) = 0 and the simplex minimum vanishes too
    assert rows[0]["h"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0]["min_simplex"] == pytest.approx(0.0, abs=1e-9)


def test_additivity_single_t_and_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "additivity",
        "--d", "3", "--t", "-0.5", "--restarts", "3", "--n-random", "10",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,h,min_simplex,min_random,gap"
    vals = lines[1].split(",")
    assert float(vals[1]) == pytest.approx(math.log(2.0), abs=1e-9)


def test_verify_command_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "main", "--d", "3", "--samples", "100")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9
    assert all(r["violations"] == 0 for r in reports)
    assert all(r["kind"] == "main" for r in reports)


def test_verify_all_kinds(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "all", "--d", "3", "--samples", "40", "--seed", "5"
    )
    assert code == 0
    kinds = {r["kind"] for r in json.loads(out)}
    assert kinds == {"main", "k0", "second_term", "extreme", "final_poly", "sympol", "schur"}


def test_verify_hyphenated_kind(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "second-term", "--d", "4", "--samples", "50"
    )
    assert code == 0
    assert all(r["kind"] == "second_term" for r in json.loads(out))


def test_verify_thread_determinism(capsys):
    argv = ["verify", "--kind", "main", "--d", "3:4", "--samples", "500", "--seed", "42"]
    code1, out1, _ = run_cli(capsys, *argv, "--threads", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--threads", "8")
    assert code1 == code2 == 0
    assert out1 == out2


def test_schur_scan_alias(capsys):
    code, out, _ = run_cli(capsys, "schur-scan", "--d", "3", "--samples", "60")
    assert code == 0
    assert all(r["kind"] == "schur" for r in json.loads(out))


# argv, header, data rows, and the columns whose cells, or whose ';'-joined items, are floats
_TABLES = {
    "apply": (["apply", "--d", "2", "--t", "-0.3", "--input", "RHO"], "row,col,re,im", 4, ("re", "im")),
    "spectrum": (
        ["spectrum", "--d", "3", "--t", "-0.5", "--lambda", "0.5,0.3,0.2"], "family,index,value", 10, ("value",)
    ),
    "entropy": (
        ["entropy", "--d", "3", "--t", "-0.5", "--lambda", "0.5,0.3,0.2"], "s_total,s1,s2,c", 1, ("s_total", "s1", "s2", "c")
    ),
    "min-entropy": (
        ["min-entropy", "--d", "3", "--t", "-0.5", "--restarts", "4"],
        "h,h_closed_form,argmin_re,argmin_im", 1, ("h", "h_closed_form", "argmin_re", "argmin_im"),
    ),
    "additivity": (
        ["additivity", "--d", "3", "--t=-0.5:0.25:4", "--restarts", "2", "--n-random", "3"],
        "t,h,min_simplex,min_random,gap", 4, ("t", "h", "min_simplex", "min_random", "gap"),
    ),
    "verify": (
        ["verify", "--kind", "main", "--d", "3:4", "--samples", "20", "--threads", "1"],
        "kind,d,t,k_values,samples,violations,worst_margin,seed", 18, ("t", "worst_margin"),
    ),
    "schur-scan": (
        ["schur-scan", "--d", "3", "--t-grid=-0.4:-0.1:3", "--samples", "20", "--threads", "1"],
        "kind,d,t,k_values,samples,violations,worst_margin,seed", 3, ("t", "worst_margin"),
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("command", sorted(_TABLES))
def test_csv_and_text_tables(tmp_path, capsys, command, fmt):
    argv, header, count, float_columns = _TABLES[command]
    rho = tmp_path / "rho.json"
    rho.write_text(to_json(density_to_obj(td.pure_state(np.array([0.6, 0.8])))))
    argv = [str(rho) if a == "RHO" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    lines = out.splitlines()
    names = header.split(",")
    if fmt == "text":
        assert lines[0].split() == names
        assert set(lines[1]) == {"-", " "}
        assert len(lines) == 2 + count
        # The dash runs give each column's span; no cell holds a blank.
        spans = [m.span() for m in re.finditer("-+", lines[1])]
        assert all(" " not in line[a:b].strip() for line in lines[2:] for a, b in spans)
        return
    assert lines[0] == header
    assert len(lines) == 1 + count
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == len(names) for row in rows)
    floats = [
        item for row in rows for name, cell in zip(names, row) if name in float_columns for item in cell.split(";")
    ]
    assert len(floats) >= count * len(float_columns)
    assert all(cell == fmt_float(float(cell)) for cell in floats)
    assert any(cell != format(float(cell), ".12g") for cell in floats)  # not the text table's 12 digits


def test_bad_channel_parameters_exit_3(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--d", "3", "--t", "-0.6", "--lambda", "1,0,0")
    assert code == 3
    code, _, err = run_cli(capsys, "entropy", "--d", "1", "--t", "0.0", "--lambda", "1")
    assert code == 3


@pytest.mark.parametrize("lam", ["nan,nan", "inf,0", "0.5,nan"])
def test_non_finite_lambda_exit_3(capsys, lam):
    code, out, err = run_cli(capsys, "spectrum", "--d", "2", "--t", "-0.5", "--lambda", lam)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_additivity_bad_dimension_exit_3(capsys, d):
    code, out, err = run_cli(capsys, "additivity", "--d", d, "--restarts", "1", "--n-random", "1")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["additivity", "--d", "3", "--t", "-0.5", "--restarts", "-5", "--n-random", "-3"],
        ["additivity", "--d", "3", "--t", "-0.5", "--restarts", "1", "--n-random", "-1"],
        ["min-entropy", "--d", "3", "--t", "-0.5", "--restarts", "-2"],
    ],
)
def test_negative_optimizer_counts_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kind", "main", "--d", "3", "--samples", "5"],
        ["schur-scan", "--d", "3", "--samples", "5"],
        ["min-entropy", "--d", "3", "--t", "-0.5", "--restarts", "2"],
        ["additivity", "--d", "3", "--t", "-0.5", "--restarts", "1", "--n-random", "1"],
    ],
)
def test_seeds_outside_the_philox_range_exit_3(capsys, argv):
    # The streams reduce a seed mod 2^64: --seed -1 drew the samples of
    # 2^64 - 1 and reported -1.
    for seed in ("-1", str(2**64)):
        code, out, err = run_cli(capsys, *argv, f"--seed={seed}")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "seed" in err
    code, out, _ = run_cli(capsys, *argv, f"--seed={2**64 - 1}")
    assert code == 0 and out


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["min-entropy", "--d", "3", "--t", "-0.5", "--restarts", "2"],
        ["additivity", "--d", "3", "--t", "-0.5", "--restarts", "1", "--n-random", "1"],
        ["spectrum", "--d", "3", "--t", "-0.5", "--lambda", "0.5,0.3,0.2"],
    ],
)
def test_non_finite_tol_exit_3(capsys, argv, tol):
    # A NaN tolerance would turn the check off: every comparison with it is false.
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "exc",
    [np.linalg.LinAlgError("Eigenvalues did not converge"), ZeroDivisionError("float\ndivision")],
)
def test_internal_failure_exit_4(capsys, monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr(spectrum, "_secular_block_roots", fail)
    code, out, err = run_cli(capsys, "spectrum", "--d", "3", "--t", "-0.5", "--lambda", "0.5,0.3,0.2")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: internal failure")
    assert "Traceback" not in err


def test_covariance_mismatch_exit_4(capsys, monkeypatch):
    # A two-copy output off the Schmidt closed form is a library fault: each
    # checked state reaches the covariance check scaled by sqrt(1 + 1e-6).
    # The check runs as the Haar sample is built, and a sample that fails
    # it is never cached, so no cache entry outlives the fault.
    plain = entropy._reconstruction_bounds
    monkeypatch.setattr(entropy, "_reconstruction_bounds", lambda states, lam: plain(np.sqrt(1.0 + 1e-6) * states, lam))
    entropy._haar_sample.cache_clear()
    code, out, err = run_cli(capsys, "additivity", "--d", "3", "--restarts", "2", "--n-random", "4")
    assert entropy._haar_sample.cache_info().currsize == 0
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: internal failure: CovarianceMismatch")
    assert "d=3 over its t range" in err
    assert "Traceback" not in err


def test_unknown_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--kind", "bogus", "--d", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kind", "second-term", "--d", "5", "--samples", "20", "--tol", "1e9"],
        ["schur-scan", "--d", "3", "--samples", "2", "--tol", "1e9"],
        ["verify", "--kind", "main", "--d", "3", "--samples", "2", "--log-base", "2"],
        ["apply", "--d", "2", "--t", "-0.5", "--input", "-", "--seed", "1"],
        ["spectrum", "--d", "2", "--t", "-0.5", "--lambda", "1,0", "--threads", "2"],
        ["spectrum", "--d", "2", "--t", "-0.5", "--lambda", "1,0", "--log-base", "2"],
        ["entropy", "--d", "2", "--t", "-0.5", "--lambda", "1,0", "--seed", "3"],
        ["entropy", "--d", "2", "--t", "-0.5", "--lambda", "1,0", "--tol", "1"],
        ["min-entropy", "--d", "2", "--t", "-0.5", "--threads", "2"],
        ["additivity", "--d", "2", "--threads", "2"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_threads_env_override(monkeypatch):
    from tdchan.cli import _resolve_threads

    monkeypatch.setenv("TDCHAN_THREADS", "3")
    assert _resolve_threads(None) == 3
    assert _resolve_threads(2) == 2
    monkeypatch.delenv("TDCHAN_THREADS")
    assert _resolve_threads(None) >= 1


def test_threads_default_to_the_cpus_this_process_may_run_on(monkeypatch):
    from tdchan.cli import _resolve_threads

    monkeypatch.delenv("TDCHAN_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert _resolve_threads(None) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _resolve_threads(None) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_threads(None) == 1


@pytest.mark.parametrize(
    "argv, env",
    [
        (["--threads", "0"], None),
        (["--threads", "-4"], None),
        ([], "abc"),
        ([], "0"),
        ([], "-2"),
        ([], "1.5"),
    ],
)
@pytest.mark.parametrize("command", [["verify", "--kind", "final-poly"], ["schur-scan"]])
def test_bad_thread_counts_exit_3(capsys, monkeypatch, command, argv, env):
    if env is None:
        monkeypatch.delenv("TDCHAN_THREADS", raising=False)
    else:
        monkeypatch.setenv("TDCHAN_THREADS", env)
    code, out, err = run_cli(capsys, *command, "--d", "3", "--samples", "2", *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", [["verify", "--kind", "main"], ["schur-scan"]])
@pytest.mark.parametrize("argv", [["--d", "3:256"], ["--d", "3", "--t-grid=-0.4:-0.1:65537"]])
def test_scans_whose_stream_keys_would_collide_exit_3(capsys, command, argv):
    # The stream key holds d in 8 bits and the t index in 16.
    code, out, err = run_cli(capsys, *command, *argv, "--samples", "5")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", [["verify", "--kind", "main"], ["schur-scan"]])
def test_an_oversized_t_grid_exits_3_before_it_is_built(capsys, monkeypatch, command):
    # The size of an A:B:STEPS grid is checked from STEPS, so a grid the
    # scan would reject is never built: no np.linspace call asks for more
    # points than a scan may take.
    plain, nums = np.linspace, []

    def recording(start, stop, num=50, **kwargs):
        nums.append(num)
        return plain(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", recording)
    code, out, err = run_cli(capsys, *command, "--d", "3", "--t-grid=-0.4:-0.1:20000000", "--samples", "5")
    assert code == 3
    assert out == ""
    assert err == "error: t_grid may hold at most 65536 points, got 20000000\n"
    assert max(nums, default=0) <= 65536
    code, out, _ = run_cli(capsys, *command, "--d", "3", "--t-grid=-0.4:-0.1:5", "--samples", "1")
    assert code == 0 and nums == [5]
    assert [row["t_values"][0] for row in json.loads(out)] == plain(-0.4, -0.1, 5).tolist()


def test_an_oversized_additivity_grid_exits_3_before_it_is_built(capsys, monkeypatch):
    # STEPS is checked before np.linspace is asked for the grid, so an
    # A:B:STEPS of 10^11 points exits 3 and raises no MemoryError.
    plain, nums = np.linspace, []

    def recording(start, stop, num=50, **kwargs):
        nums.append(num)
        return plain(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", recording)
    code, out, err = run_cli(capsys, "additivity", "--d", "3", "--t", "0:0.1:100000000000")
    assert code == 3
    assert out == ""
    assert err == "error: t_grid may hold at most 65536 points, got 100000000000\n"
    assert nums == []


def test_an_additivity_t_outside_the_range_exits_3_before_any_cell(capsys, monkeypatch):
    # t = 0.3 is past 1/(d+1) = 0.25 at d = 3: the grid is rejected before
    # its first four t, which are in range, run a cell.
    from tdchan import cli

    cells = []
    monkeypatch.setattr(cli, "additivity_gap", lambda ch, cfg: cells.append(ch.t))
    code, out, err = run_cli(capsys, "additivity", "--d", "3", "--t=-0.5:0.3:5", "--restarts", "1", "--n-random", "1")
    assert code == 3
    assert out == ""
    assert err == "error: t=0.3 outside [-0.5, 0.25] for d=3\n"
    assert cells == []


@pytest.mark.parametrize("grid", ["5", "nan", "0", "--t-grid=-0.5:0:3", "--t-grid=-0.6"])
@pytest.mark.parametrize("kind", ["main", "k0", "second-term", "extreme", "final-poly", "sympol", "schur", "all"])
def test_t_outside_the_domain_exits_3_for_every_kind(capsys, kind, grid):
    t_grid = [grid] if grid.startswith("--") else ["--t-grid", grid]
    code, out, err = run_cli(capsys, "verify", "--kind", kind, "--d", "3", "--samples", "5", *t_grid)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_parser_is_built_once_and_threads_env_is_read_per_call(monkeypatch, capsys):
    from tdchan import cli

    built, threads = [], []
    build, scan = cli.build_parser, cli.run_scan

    def counting_build():
        built.append(1)
        return build()

    def recording_scan(*args, **kwargs):
        threads.append(kwargs["threads"])
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "run_scan", recording_scan)
    cli._parser.cache_clear()
    try:
        argv = ["verify", "--kind", "final-poly", "--d", "3"]
        outputs = []
        for env in ("1", "3"):
            monkeypatch.setenv("TDCHAN_THREADS", env)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            main(["verify", "--kind", "bogus", "--d", "3"])
        assert main(argv + ["--threads", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert threads == [1, 3, 2]
    assert outputs[0] == outputs[1] == outputs[2]


# ------------------------------------------------------------------- start-up


def test_import_loads_no_scipy():
    code = "import sys, tdchan, tdchan.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(td.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------------ argv fuzz


def _flag(name, values):
    return st.tuples(st.just(name), values).map(list)


def _mostly(valid, invalid):
    """Valid tokens three times as often as invalid ones."""
    return st.sampled_from(valid * 3 + invalid)


_INTS = _mostly(["2", "3", "4"], ["-1", "0", "1", "5", "x", ""])
_DIMS = st.one_of(_INTS, _mostly(["2:3", "3:4"], ["4:3", "1:3", "3:", "a:b"]))
_REALS = st.one_of(
    _mostly(["-0.5", "-0.25", "-0.1", "0", "0.1", "0.2"], ["-1", "1", "nan", "inf", "-inf", "1e400", "x", ""]),
    st.floats(-1.5, 1.5, allow_nan=False).map(repr),
)
_GRIDS = st.one_of(
    _REALS,
    _mostly(["-0.5:0:3", "-0.3:0.2:2", "-0.1:-0.1:2"], ["0:1:1", "0:1", "a:b:3", "nan:0:2", "-1:1:3"]),
)
_LAMBDAS = st.one_of(
    _mostly(["1,0", "0.5,0.5", "1,0,0", "0.2,0.3,0.5", "0.25,0.25,0.25,0.25"],
            ["nan,nan", "0.5,0.6", "-0.1,1.1", "", "1,x", "1"]),
    st.lists(_REALS, max_size=5).map(",".join),
)
_SMALL = _mostly(["0", "1", "2", "3"], ["-2", "x"])
_FILES = ("valid.json", "bad.json", "latin1.json", "missing.json", "dir")
_INPUTS = st.sampled_from(_FILES + ("-",))

_COMMON = [
    _flag("--format", st.sampled_from(["json", "csv", "text", "xml"])),
    _flag("--seed", st.sampled_from(["0", "-1", "18446744073709551617", "x"])),
    _flag("--threads", st.sampled_from(["1", "2", "0", "-4", "x"])),
    _flag("--log-base", st.sampled_from(["e", "2", "10"])),
    _flag("--tol", _REALS),
]
_FLAGS = {
    "apply": [_flag("--d", _INTS), _flag("--t", _REALS), _flag("--input", _INPUTS)],
    "spectrum": [_flag("--d", _INTS), _flag("--t", _REALS), _flag("--lambda", _LAMBDAS)],
    "entropy": [_flag("--d", _INTS), _flag("--t", _REALS), _flag("--lambda", _LAMBDAS)],
    "min-entropy": [_flag("--d", _INTS), _flag("--t", _REALS), _flag("--restarts", _SMALL)],
    "additivity": [
        _flag("--d", st.integers(-1, 3).map(str)),
        _flag("--t", _GRIDS),
        _flag("--restarts", _SMALL),
        _flag("--n-random", _SMALL),
    ],
    "schur-scan": [_flag("--d", _DIMS), _flag("--t-grid", _GRIDS), _flag("--samples", _SMALL)],
    "verify": [
        _flag("--kind", st.sampled_from(["main", "k0", "second-term", "extreme", "final-poly",
                                         "sympol", "schur", "all", "bogus"])),
        _flag("--d", _DIMS),
        _flag("--t-grid", _GRIDS),
        _flag("--samples", _SMALL),
    ],
}


@st.composite
def argvs(draw):
    """A subcommand, most of its own flags and a few shared ones, shuffled."""
    command = draw(st.sampled_from(sorted(_FLAGS) + ["bogus"]))
    flags = [f for f in _FLAGS.get(command, []) if draw(st.integers(0, 7))]
    flags += draw(st.lists(st.sampled_from(_COMMON), max_size=1))
    flags = draw(st.permutations(flags))
    return [command] + [token for flag in flags for token in draw(flag)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "valid.json").write_text(json.dumps(density_to_obj(td.pure_state(np.array([1.0, 0.0])))))
    (root / "bad.json").write_text("{not json")
    (root / "latin1.json").write_bytes(b'{"dim": 2, "rows": "\xe9"}')
    (root / "dir").mkdir()
    return root


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_argv_fuzz_exits_with_a_documented_code(fuzz_dir, argv):
    argv = [str(fuzz_dir / a) if a in _FILES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
