"""End-to-end CLI tests driving the subcommands through main()."""

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbound import cli, regions
from ccbound.attack import chsh_keyrate_bound, critical_visibility
from ccbound.cli import main
from ccbound.correlations import chsh_arrangement, chsh_protocol_correlation, dump_correlation, werner_correlation
from ccbound.infotheory import JointDistribution, minimize_intrinsic
from ccbound.regions import CSV_HEADER, LABELS, REGION_COMMENT, classify_arrays

import pins

PI4_STR = repr(math.pi / 4)
# one BLAS thread, so that a child's address space does not grow with the
# core count (see _cap_address_space)
CHILD_ENV = {
    **os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue().encode()


def _pinned(command):
    """The keys of the pinned cases of one subcommand, which name its tests."""
    return [name.split(" ", 1)[1] for name in pins.PINS if name.startswith(command + " ")]


def _assert_pinned(tmp_path, monkeypatch, name):
    # an output depends only on argv and the input files, so a seed exported
    # under the name ccbound once read must change no pinned output
    monkeypatch.setenv("CCBOUND_SEED", "1")
    monkeypatch.chdir(tmp_path)
    case = pins.PINS[name]
    assert pins.outputs(case, _in_process, tmp_path) == (0, case.sha256)


def _cap_address_space():
    # the CLI needs about 150 MB of address space, so under a 1 GiB cap a
    # command that holds a large output whole fails instead of running the
    # machine out of memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _into_closed_pipe(argv):
    """Run the CLI, close its stdout after one line; (line, exit code, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ccbound.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV, preexec_fn=_cap_address_space,
    )
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        return line, proc.wait(timeout=60), proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


def test_python_m_ccbound_runs_the_cli(capsys):
    # ccbound.cli is the one module entry: it prints main's bytes, and the package has no __main__
    code, out, _ = run(capsys, ["constants"])
    cli_proc, package_proc = (
        subprocess.run([sys.executable, "-m", module, "constants"], capture_output=True, env=CHILD_ENV, timeout=60)
        for module in ("ccbound.cli", "ccbound")
    )
    assert (cli_proc.returncode, cli_proc.stdout, cli_proc.stderr) == (code, out.encode(), b"")
    assert (package_proc.returncode, package_proc.stdout) == (1, b"")
    assert b"'ccbound' is a package and cannot be directly executed" in package_proc.stderr


def test_importing_a_module_loads_only_what_it_uses():
    probe = "import importlib, sys; importlib.import_module(sys.argv[1]); print(*sorted(sys.modules))"
    loaded = {
        module: set(subprocess.run(
            [sys.executable, "-c", probe, module], capture_output=True, check=True, env=CHILD_ENV, timeout=60,
        ).stdout.decode().split())
        for module in ("ccbound.localset", "ccbound.attack")
    }
    assert "ccbound.localset" in loaded["ccbound.localset"]
    assert loaded["ccbound.localset"].isdisjoint(
        {"ccbound.attack", "ccbound.infotheory", "ccbound.regions", "ccbound.cli"}
    )
    assert "ccbound.attack" in loaded["ccbound.attack"]
    assert "ccbound.regions" not in loaded["ccbound.attack"]


# ---------------------------------------------------------------- constants


def test_constants_default(capsys):
    code, out, err = run(capsys, ["constants"])
    assert code == 0 and err == ""
    assert "werner_local_visibility = 0.682894" in out
    assert "werner_nonlocal_visibility = 0.696400" in out
    assert "werner_critical_visibility = 0.726291" in out
    assert "protocol_local_visibility = 0.707107" in out
    assert "protocol_critical_visibility = 0.744521" in out


def test_constants_custom_theta(capsys):
    code, out, _ = run(capsys, ["constants", "--theta", repr(math.pi / 3)])
    assert code == 0
    assert "protocol_local_visibility = 0.732051" in out
    assert "protocol_critical_visibility = 0.763708" in out


def test_constants_zero_theta_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["constants", "--theta", "0"])
    assert excinfo.value.code != 0


@pytest.mark.parametrize("command", ["constants", "curve", "bound"])
@pytest.mark.parametrize("theta", [["--theta", "1e-17"], ["--theta", "1.1e-16"]])
def test_theta_whose_local_visibility_rounds_to_one_is_usage_error(capsys, tmp_path, command, theta):
    # cos theta + sin theta rounds to 1, so the local visibility is 1: refused
    # before any output file is opened (or the correlation file is read)
    out_path = tmp_path / "out.csv"
    argv = {"constants": ["constants"], "curve": ["curve", "--out", str(out_path)],
            "bound": ["bound", str(tmp_path / "missing.json")]}[command]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + theta)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == "" and not out_path.exists()
    assert captured.err.splitlines()[-1].startswith("ccbound: error: theta is too close to 0")


def test_smallest_theta_above_the_rounding_is_accepted(capsys):
    # 1.2e-16 is more than half an ulp of 1, so cos theta + sin theta > 1
    code, out, _ = run(capsys, ["constants", "--theta", "1.2e-16"])
    assert code == 0 and "protocol_local_visibility = 1.000000" in out


@pytest.mark.parametrize("command", ["constants", "curve", "bound"])
def test_theta_deg_is_not_an_option(capsys, tmp_path, command):
    # the angle is given in radians, by --theta alone
    argv = {"constants": ["constants"], "curve": ["curve"], "bound": ["bound", str(tmp_path / "missing.json")]}[command]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--theta-deg", "45"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --theta-deg 45" in captured.err


def test_constants_json(capsys):
    code, out, _ = run(capsys, ["constants", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["werner_nonlocal_visibility"] == 0.6964


# -------------------------------------------------------------------- curve


def test_curve_rows_and_anchors(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys,
        ["curve", "--theta", PI4_STR, "--v-min", "0.70", "--v-max", "1.0",
         "--step", "0.005", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "v,S,bound"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    # S = 2 sqrt(2) v at theta = pi/4
    assert rows["1.000000"][1] == f"{2 * math.sqrt(2):.6f}"
    assert rows["1.000000"][2] == "1.000000"
    assert rows["0.700000"][2] == "0.000000"  # below critical, clamped
    v = 0.745
    assert rows["0.745000"][1] == f"{2 * math.sqrt(2) * v:.6f}"


def test_curve_deterministic_and_jobs_invariant(capsys, tmp_path):
    args = ["curve", "--v-min", "0.7", "--v-max", "0.9", "--step", "0.01"]
    a, b_ = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, args + ["--out", str(a)])[0] == 0
    assert run(capsys, args + ["--out", str(b_)])[0] == 0
    assert a.read_bytes() == b_.read_bytes()


def test_curve_bad_range(capsys):
    with pytest.raises(SystemExit):
        main(["curve", "--v-min", "0.9", "--v-max", "0.5"])
    with pytest.raises(SystemExit):
        main(["curve", "--step", "0"])


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_curve_rejects_non_finite_step(capsys, step):
    # like a non-positive step: a usage error, and no CSV on stdout
    with pytest.raises(SystemExit) as excinfo:
        main(["curve", "--step", step])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].startswith("ccbound: error: --step must be")


@pytest.mark.parametrize("v_min, v_max, step", [("0.5", "0.5", "1e-300"), ("0", "1", "1e-12")])
def test_curve_rejects_a_step_too_small_for_its_range(v_min, v_max, step):
    # in a subprocess with a timeout, so that a curve that never ends (the
    # first case) or builds 10^12 rows (the second) fails instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "ccbound.cli", "curve", "--v-min", v_min, "--v-max", v_max, "--step", step],
        capture_output=True, env=CHILD_ENV, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.splitlines()[-1].startswith(b"ccbound: error: --step is too small for the range")


def test_curve_record_layout():
    # a record holds a row's text at the offsets of its fields: three
    # "d.dddddd" words one comma apart, then the newline
    assert cli.CURVE_ROW.itemsize == 27
    assert dict(cli.CURVE_ROW.fields) == {name: (np.dtype(np.uint64), offset) for name, offset in
                                          [("v", 0), ("S", 9), ("bound", 18)]}


def test_curve_memory_does_not_grow_with_its_rows(tmp_path):
    # 25,001 rows: held whole, their floats, strings and join take several MB
    out_path = tmp_path / "curve.csv"
    tracemalloc.start()
    try:
        code = main(["curve", "--v-min", "0", "--v-max", "1", "--step", "4e-5", "--out", str(out_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out_path.read_bytes().count(b"\n") == 25_002
    assert peak < 2_000_000


def test_curve_into_closed_pipe_exits_quietly():
    # a curve of nearly the 10^7-row limit under the 1 GiB cap: its rows
    # reach the pipe block by block as they are computed, so the writer
    # meets the closed pipe after a few blocks
    line, code, err = _into_closed_pipe(["curve", "--v-min", "0", "--v-max", "0.999999", "--step", "1e-7"])
    assert (line, code, err) == (b"v,S,bound\n", 141, b"")


def _scalar_curve(theta, v_min, v_max, step):
    """The curve CSV row by row from the scalar definition: v = v_min + i * step
    kept while <= v_max + 1e-12 and capped at 1."""
    scale = 2.0 * (math.cos(theta) + math.sin(theta))
    lines = ["v,S,bound\n"]
    i = 0
    while (v := v_min + i * step) <= v_max + 1e-12:
        v = min(v, 1.0)
        lines.append("%.6f,%.6f,%.6f\n" % (v, scale * v, chsh_keyrate_bound(theta, v)))
        i += 1
    return "".join(lines)


@pytest.mark.parametrize("step", ["1e-3", "0.005"])
@pytest.mark.parametrize("theta", [0.05, 0.3, math.pi / 4, 1.2, math.pi / 2 - 0.05])
def test_curve_rows_equal_the_scalar_definition(capsys, theta, step):
    code, out, _ = run(capsys, ["curve", "--theta", repr(theta), "--v-min", "0", "--v-max", "1", "--step", step])
    assert code == 0 and out == _scalar_curve(theta, 0.0, 1.0, float(step))


@pytest.mark.parametrize(
    "v_min, v_max, step, rows",
    [
        # the last step overshoots v_max, or 1, by less than 1e-12
        (0.1, 0.3, 0.1, 3), (0.09, 1.0, 0.07, 14),
        # one whole block of 4096 rows, then 4097 and 10,001 rows
        (0.0, 1.0, 1 / 4095, 4096), (0.0, 1.0, 1 / 4096, 4097), (0.0, 1.0, 1e-4, 10_001),
    ],
)
def test_curve_rows_follow_the_step_rule(capsys, v_min, v_max, step, rows):
    code, out, _ = run(capsys, ["curve", "--v-min", repr(v_min), "--v-max", repr(v_max), "--step", repr(step)])
    assert code == 0 and out == _scalar_curve(math.pi / 4, v_min, v_max, step)
    assert out.count("\n") == rows + 1


def test_curve_step_rule_cases_overshoot_by_less_than_1e_12():
    assert 0.3 < 0.1 + 2 * 0.1 <= 0.3 + 1e-12
    assert 1.0 < 0.09 + 13 * 0.07 <= 1.0 + 1e-12


def test_curve_row_near_a_rounding_tie_takes_the_scalar_text(capsys):
    # bisect v until the bound is within 1e-15 of 0.1234565, a "%.6f" tie,
    # where a last-bit difference from the scalar bound could change the text
    theta, target = math.pi / 4, 123456.5
    lo, hi = critical_visibility(theta), 1.0
    while abs(error := chsh_keyrate_bound(theta, v := 0.5 * (lo + hi)) * 1e6 - target) > 1e-9:
        assert lo < v < hi
        lo, hi = (v, hi) if error < 0 else (lo, v)
    code, out, _ = run(capsys, ["curve", "--theta", repr(theta), "--v-min", repr(v), "--v-max", repr(v)])
    assert code == 0 and out == _scalar_curve(theta, v, v, 0.005)
    # the curve's array path gives the scalar bound bit for bit
    assert chsh_keyrate_bound(theta, np.array([v]))[0].tobytes() == np.float64(chsh_keyrate_bound(theta, v)).tobytes()


def test_curve_of_a_million_rows_is_pinned(tmp_path):
    out_path = tmp_path / "curve.csv"
    assert main(["curve", "--v-min", "0", "--v-max", "1", "--step", "1e-6", "--out", str(out_path)]) == 0
    data = out_path.read_bytes()
    assert data.count(b"\n") == 1_000_002
    assert hashlib.sha256(data).hexdigest() == pins.CURVE_1E6_SHA256


# ------------------------------------------------------------------- region


def test_region_csv(capsys, tmp_path):
    out_path = tmp_path / "region.csv"
    code, _, _ = run(capsys, ["region", "--resolution", "21", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "s,t,v,theta,label"
    assert len(lines) == 2 + 21 * 21
    assert lines[2].endswith("LOCAL")


def test_region_contains_expected_labels(capsys, tmp_path):
    out_path = tmp_path / "region.csv"
    run(capsys, ["region", "--resolution", "201", "--out", str(out_path)])
    lines = out_path.read_text().splitlines()[2:]
    assert len(lines) == 201 * 201
    table = {tuple(line.split(",")[:2]): line.split(",")[4] for line in lines}
    assert table[("0.550000", "0.480000")] == "RED_ZERO_KEY"
    assert table[("0.500000", "0.400000")] == "LOCAL"
    assert table[("0.600000", "0.600000")] == "BLUE_POSITIVE_BOUND"


@pytest.mark.parametrize("argv", [["curve", "--jobs", "3"], ["region", "--jobs", "4"]], ids=["curve", "region"])
def test_jobs_is_not_an_option(capsys, argv):
    # both commands run in one process, so there is no worker count to set
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "unrecognized arguments: --jobs" in err


def test_region_rejects_a_resolution_below_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["region", "--resolution", "1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == "ccbound: error: --resolution must be at least 2"


@pytest.mark.parametrize("key", _pinned("region"))
def test_region_bytes_pinned(tmp_path, monkeypatch, key):
    _assert_pinned(tmp_path, monkeypatch, f"region {key}")


def test_region_stdout_equals_file(capsys, tmp_path):
    out_path = tmp_path / "region.csv"
    run(capsys, ["region", "--resolution", "201", "--out", str(out_path)])
    code, out, err = run(capsys, ["region", "--resolution", "201", "--out", "-"])
    assert code == 0 and err == ""
    assert out.encode("ascii") == out_path.read_bytes()


@pytest.mark.parametrize("resolution", [2, 128, 129, 300])
def test_region_stream_equals_the_written_grid(capsys, resolution):
    # 16,384-point blocks: 128 is exactly one block, 129 blocks of 127 and 2
    # rows, 300 blocks of 54 rows with a last one of 30; every row is the
    # "%.6f" text of classify_arrays over the tiled axis
    code, out, _ = run(capsys, ["region", "--resolution", str(resolution)])
    axis = regions._grid_axis(resolution)
    s, t = np.tile(axis, resolution), np.repeat(axis, resolution)
    columns = [column.tolist() for column in (s, t, *classify_arrays(s, t))]
    rows = ["%.6f,%.6f,%.6f,%.6f,%s" % (*values, LABELS[label]) for *values, label in zip(*columns)]
    assert code == 0 and out == "\n".join([REGION_COMMENT, CSV_HEADER, *rows, ""])


@pytest.mark.parametrize(
    "argv", [["region", "--resolution", "21"], ["curve", "--v-min", "0", "--v-max", "1", "--step", "1e-3"]]
)
def test_csv_on_a_stdout_without_a_byte_stream_is_the_file_text(tmp_path, argv):
    # an io.StringIO stdout has no .buffer: it is written the same text
    out_path = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--out", "-"]) == 0
    assert out.getvalue().encode("ascii") == out_path.read_bytes()


def _region_peak(resolution):
    tracemalloc.start()
    try:
        code = main(["region", "--resolution", str(resolution), "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_region_memory_does_not_grow_with_its_resolution():
    # the whole grid holds 17 B per point: 10.9 MB at 801, 43.6 MB at 1601
    small = _region_peak(201)
    assert _region_peak(801) < 5_000_000
    assert _region_peak(1601) < small + 1_000_000


def test_region_into_closed_pipe_exits_quietly():
    # 201^2 rows are far more than a pipe buffer holds, so the writer is
    # still writing when the reader goes away
    line, code, err = _into_closed_pipe(["region", "--resolution", "201"])
    assert line.startswith(b"# grid ordering") and (code, err) == (141, b"")


def test_region_rejects_a_resolution_above_the_row_limit():
    # 10^10 points: a usage error before any array is allocated (under the
    # cap, an allocation of that grid fails with a traceback)
    proc = subprocess.run(
        [sys.executable, "-m", "ccbound.cli", "region", "--resolution", "100000"],
        capture_output=True, env=CHILD_ENV, timeout=10, preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.splitlines()[-1].startswith(b"ccbound: error: --resolution")


# -------------------------------------------------------------------- bound


def test_bound_ideal_visibility(capsys, tmp_path):
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 1.0), path)
    code, out, _ = run(capsys, ["bound", str(path), "--theta", PI4_STR])
    assert code == 0
    assert "bound = 1.000000" in out
    assert "local_weight = 0.000000" in out


def test_bound_with_no_local_part_hides_every_mismatched_symbol(capsys, tmp_path):
    # at v = 1 the split has no local part (q = 0); near theta = pi/2 the (0, 0)
    # pair is only just unbalanced, and its fraction is 1, not a division by zero
    theta = 1.5707963267946965
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(theta, 1.0), path)
    code, out, err = run(capsys, ["bound", str(path), "--theta", repr(theta), "--setting", "0,0"])
    assert (code, err) == (0, "")
    assert "unknown_fraction = 1.000000" in out
    assert out.splitlines()[-1].startswith("bound = ")


def test_bound_auto_fraction_zero_key(capsys, tmp_path):
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.72), path)
    code, out, _ = run(capsys, ["bound", str(path), "--theta", PI4_STR])
    assert code == 0
    assert "bound = 0.000000" in out
    assert "unknown_fraction = 0.314430" in out


def test_bound_fixed_fraction_and_json(capsys, tmp_path):
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.8), path)
    code, out, _ = run(capsys, ["bound", str(path), "--lambda", "1.0", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == pytest.approx(0.085696385059, abs=1e-9)
    assert data["settings"]["0,2"]["weight"] == 1.0


def test_bound_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, out, err = run(capsys, ["bound", str(path)])
    assert code != 0
    assert err.startswith("error:")


def test_bound_rejects_non_protocol_correlation(capsys, tmp_path):
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(0.5, 0.8), path)
    code, _, err = run(capsys, ["bound", str(path), "--theta", "1.2"])
    assert code == 1
    assert "error:" in err


def test_bound_rejects_a_correlation_of_another_scenario(capsys, tmp_path):
    # a Werner correlation with Bob's fourth setting: 2x4, not the protocol's 2x3
    path = tmp_path / "corr.json"
    dump_correlation(werner_correlation(0.8, chsh_arrangement(math.pi / 4, fourth_bob_setting=True)), path)
    code, out, err = run(capsys, ["bound", str(path)])
    assert (code, out) == (1, "")
    assert err == (
        "error: correlation scenario Scenario(n_a=2, n_b=4, k_a=2, k_b=2) does not match the theta protocol\n"
    )


def test_bound_rejects_a_protocol_rounded_to_ten_decimals(capsys, tmp_path):
    # within 1e-9 of the protocol, but not within the 1e-12 that the attack
    # decomposition is checked to: the protocol check rejects it first
    path = tmp_path / "corr.json"
    document = json.dumps(chsh_protocol_correlation(math.pi / 4, 0.8).to_json_dict())
    path.write_text(json.dumps(json.loads(document, parse_float=lambda text: round(float(text), 10))))
    code, out, err = run(capsys, ["bound", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: correlation is not the theta protocol at any visibility (mismatch above 1e-12)\n"


def _protocol_with_shifted_key_pair(tmp_path, visibility, diagonal, off_diagonal=0.0):
    """The path of the pi/4 protocol at the visibility, its (0, 2) block's
    diagonal and off-diagonal entries each shifted by the given amounts."""
    corr = chsh_protocol_correlation(math.pi / 4, visibility)
    table = corr.table.copy()
    table[[0, 1], [0, 1], 0, 2] += diagonal
    table[[0, 1], [1, 0], 0, 2] += off_diagonal
    path = tmp_path / "corr.json"
    dump_correlation(type(corr)(corr.scenario, table), path)
    return path


@pytest.mark.parametrize("visibility, shift, bound", [(1.0, 4e-13, "1.000000"), (0.0, -4e-13, "0.000000")])
def test_bound_accepts_a_protocol_at_either_end_within_the_tolerance(capsys, tmp_path, visibility, shift, bound):
    # each entry is 4e-13 from the protocol, but the correlator <A_0 B_2>
    # sums four of them and lands 8e-13 outside [0, 1]
    path = _protocol_with_shifted_key_pair(tmp_path, visibility, shift)
    code, out, err = run(capsys, ["bound", str(path), "--theta", PI4_STR])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"visibility = {visibility:.6f}"
    assert out.splitlines()[-1] == f"bound = {bound}"


def test_bound_rejects_a_key_pair_correlator_beyond_the_tolerance(capsys, tmp_path):
    # entries 1.1e-12 from the protocol at v = 0 put the correlator 4.4e-12 below 0
    path = _protocol_with_shifted_key_pair(tmp_path, 0.0, -1.1e-12, 1.1e-12)
    code, out, err = run(capsys, ["bound", str(path), "--theta", PI4_STR])
    assert (code, out) == (1, "")
    assert err.startswith("error: inferred visibility -4.4")
    assert err.endswith(" outside [0, 1]; not a protocol correlation\n")


@pytest.mark.parametrize(
    "setting_args",
    [
        ["--setting", "5,5"],
        ["--setting=-1,2"],
        ["--setting", "0,3"],
        ["--setting", "0,2:nan"],
        ["--setting", "0,2:inf"],
        ["--setting", "0,2:0", "--setting", "0,2:1"],
        ["--setting", "1,2", "--setting", "1,2"],
        ["--setting", "0,2:1", "--setting", "1,2"],
    ],
)
def test_bound_rejects_bad_settings(capsys, tmp_path, setting_args):
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.8), path)
    code, out, err = run(capsys, ["bound", str(path), *setting_args])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("setting", ["a,b", "0.5,2", "0,2:x", "0,2:"])
def test_bound_names_a_setting_it_cannot_parse(capsys, tmp_path, setting):
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.8), path)
    code, out, err = run(capsys, ["bound", str(path), "--setting", setting])
    assert (code, out) == (1, "")
    assert err == f"error: setting must look like 'x,y' or 'x,y:weight', got {setting!r}\n"


@pytest.mark.parametrize("fraction", ["x", "", "1.5", "-0.1", "nan", "inf", "Auto"])
def test_bound_names_a_fraction_it_cannot_use(capsys, tmp_path, fraction):
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.8), path)
    code, out, err = run(capsys, ["bound", str(path), f"--lambda={fraction}"])
    assert (code, out) == (1, "")
    assert err == f"error: --lambda must be 'auto' or a number in [0, 1], got {fraction!r}\n"


@pytest.mark.parametrize(
    "option, zero",
    [(["--lambda", "-0"], "unknown_fraction"), (["--setting", "0,2:1", "--setting", "1,2:-0"], "weight")],
)
def test_bound_reads_a_negative_zero_as_zero(capsys, tmp_path, option, zero):
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.8), path)
    code, out, err = run(capsys, ["bound", str(path), *option])
    assert (code, err) == (0, "")
    assert f"{zero} = 0.000000" in out and "-0.000000" not in out
    code, out, err = run(capsys, ["bound", str(path), *option, "--json"])
    assert (code, err) == (0, "")
    assert "-0.0" not in out
    entries = json.loads(out)["settings"].values()
    assert [math.copysign(1.0, entry[zero]) for entry in entries if entry[zero] == 0.0] == [1.0]


@pytest.mark.parametrize(
    "settings",
    [
        {(0, 2): 0.75, (1, 0): 0.25},
        {(1, 2): 0.5, (0, 0): 0.125, (0, 2): 0.375},
    ],
)
@pytest.mark.parametrize("visibility", [0.72, 0.8])
def test_bound_weighted_settings_match_library(capsys, tmp_path, settings, visibility):
    from ccbound.attack import chsh_attack, keyrate_bound, setting_information

    theta = 1.2
    observed = chsh_protocol_correlation(theta, visibility)
    path = tmp_path / "corr.json"
    dump_correlation(observed, path)
    model = chsh_attack(theta, visibility, "auto", settings)
    information = setting_information(model)
    bound = keyrate_bound(observed, model)
    argv = ["bound", str(path), "--theta", repr(theta)]
    argv += [f"--setting={x},{y}:{w!r}" for (x, y), w in settings.items()]

    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[2:-1] == [
        f"setting {x},{y}: weight = {w:.6f}, "
        f"unknown_fraction = {model.unknown_fractions[(x, y)]:.6f}, "
        f"conditional_information = {information[(x, y)]:.6f}"
        for (x, y), w in settings.items()
    ]
    assert lines[-1] == f"bound = {bound:.6f}"

    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert list(data["settings"]) == sorted(f"{x},{y}" for x, y in settings)
    for (x, y), w in settings.items():
        entry = data["settings"][f"{x},{y}"]
        assert entry["weight"] == w
        assert entry["conditional_information"] == round(information[(x, y)], 12)
        assert entry["unknown_fraction"] == round(model.unknown_fractions[(x, y)], 12)
    assert data["bound"] == round(bound, 12)


# ---------------------------------------------------------------- intrinsic


def test_intrinsic_copy_distribution(capsys, tmp_path):
    p = np.zeros((2, 2, 4))
    p[0, 0, 0] = p[1, 1, 3] = 0.5
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(p).to_json_dict()))
    code, out, _ = run(capsys, ["intrinsic", str(path), "--restarts", "2"])
    assert code == 0
    assert "bound = 0.000000" in out


def test_intrinsic_independent_distribution(capsys, tmp_path):
    pab = np.array([[0.5, 0.0], [0.0, 0.5]])
    p = np.einsum("ab,e->abe", pab, np.full(3, 1 / 3))
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(p).to_json_dict()))
    code, out, _ = run(capsys, ["intrinsic", str(path), "--restarts", "2"])
    assert code == 0
    assert "bound = 1.000000" in out


def test_intrinsic_attack_distribution_reaches_zero(capsys, tmp_path):
    # side information of the convex-combination attack below the critical
    # visibility: the zeroing relabelling is inside the search space
    from ccbound.attack import cc_chsh, tripartite

    joint = tripartite(cc_chsh(math.pi / 4, 0.72), 0, 2)
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(joint.to_json_dict()))
    code, out, _ = run(capsys, ["intrinsic", str(path), "--restarts", "4"])
    assert code == 0
    assert "bound = 0.000000" in out


@pytest.mark.parametrize("key", [key for key in _pinned("intrinsic") if not key.endswith("-json")])
def test_intrinsic_outputs_pinned(tmp_path, monkeypatch, key):
    # both formats print one minimization, run once
    results = []

    def once(dist, restarts, seed):
        if not results:
            results.append(minimize_intrinsic(dist, restarts=restarts, seed=seed))
        return results[0]

    monkeypatch.setattr(cli, "minimize_intrinsic", once)
    for name in (f"intrinsic {key}", f"intrinsic {key}-json"):
        _assert_pinned(tmp_path, monkeypatch, name)


@pytest.mark.parametrize("key", _pinned("constants"))
def test_constants_outputs_pinned(tmp_path, monkeypatch, key):
    _assert_pinned(tmp_path, monkeypatch, f"constants {key}")


@pytest.mark.parametrize("key", _pinned("bound"))
def test_bound_outputs_pinned(tmp_path, monkeypatch, key):
    _assert_pinned(tmp_path, monkeypatch, f"bound {key}")


def test_intrinsic_malformed(capsys, tmp_path):
    path = tmp_path / "dist.json"
    path.write_text('{"alphabets": [2, 2]}')
    code, _, err = run(capsys, ["intrinsic", str(path)])
    assert code == 1
    assert err.startswith("error:")


def test_intrinsic_nan_distribution_is_error(capsys, tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"alphabets": [2, 2, 2], "p": np.full((2, 2, 2), math.nan).tolist()}))
    code, out, err = run(capsys, ["intrinsic", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_intrinsic_nan_diagnostic_prints_plain_float(capsys, tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"alphabets": [2, 2, 2], "p": np.full((2, 2, 2), math.nan).tolist()}))
    code, _, err = run(capsys, ["intrinsic", str(path)])
    assert code == 1
    assert err == "error: negative or NaN probability entry: min = nan\n"


def test_intrinsic_rejects_negative_restarts(capsys, tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()))
    code, out, err = run(capsys, ["intrinsic", str(path), "--restarts", "-3"])
    assert (code, out, err) == (1, "", "error: restarts must be >= 0, got -3\n")


@pytest.mark.parametrize("restarts", ["0", "2"])
def test_intrinsic_rejects_negative_seed(capsys, tmp_path, restarts):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()))
    code, out, err = run(capsys, ["intrinsic", str(path), "--restarts", restarts, "--seed", "-1"])
    assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")


def test_intrinsic_json_matches_text(capsys, tmp_path):
    from ccbound.attack import cc_chsh, tripartite
    joint = tripartite(cc_chsh(math.pi / 6, 0.8), 0, 2)
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(joint.to_json_dict()))
    argv = ["intrinsic", str(path), "--restarts", "2"]
    code, text, _ = run(capsys, argv)
    assert code == 0
    code, out, _ = run(capsys, [*argv, "--json"])
    assert code == 0
    document = json.loads(out)
    assert sorted(document) == ["bound", "map"]
    result = minimize_intrinsic(joint, restarts=2, seed=0)
    rows = result.map.rows.tolist()
    assert document["bound"] == round(result.bound, 12)
    assert document["map"] == [[round(v, 12) for v in row] for row in rows]
    assert text == "".join(
        [f"bound = {result.bound:.6f}\nmap:\n"] + ["  " + " ".join(f"{v:.6f}" for v in row) + "\n" for row in rows]
    )


# -------------------------------------------------------------- localweight


def test_localweight_along_target(capsys, tmp_path):
    corr_path = tmp_path / "corr.json"
    target_path = tmp_path / "target.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.85), corr_path)
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 1.0), target_path)
    code, out, _ = run(capsys, ["localweight", str(corr_path), "--target", str(target_path)])
    assert code == 0
    assert "q_max = 0.512132" in out


def test_localweight_local_input(capsys, tmp_path):
    corr_path = tmp_path / "corr.json"
    target_path = tmp_path / "target.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.5), corr_path)
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 1.0), target_path)
    code, out, _ = run(capsys, ["localweight", str(corr_path), "--target", str(target_path)])
    assert code == 0
    assert "q_max = 1.000000" in out


def test_localweight_ns_with_component_output(capsys, tmp_path):
    corr_path = tmp_path / "corr.json"
    local_path = tmp_path / "local.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.8), corr_path)
    code, out, _ = run(
        capsys, ["localweight", str(corr_path), "--ns", "--out", str(local_path)]
    )
    assert code == 0
    assert "q_max = " in out
    assert os.path.exists(local_path)
    from ccbound.correlations import load_correlation
    from ccbound.localset import is_local_lp

    assert is_local_lp(load_correlation(local_path)).is_local


@pytest.mark.parametrize("mode", [["--target", "target.json"], ["--ns"]])
def test_localweight_out_that_cannot_be_written_prints_nothing(capsys, tmp_path, monkeypatch, mode):
    # the local component exists (q_max 0.682843 or 0.868629), but its file
    # cannot be written: exit 1 with the error alone, as every other command
    monkeypatch.chdir(tmp_path)
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.8), "corr.json")
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 1.0), "target.json")
    code, out, err = run(capsys, ["localweight", "corr.json", *mode, "--out", "missing/local.json"])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_localweight_ns_refuses_a_signaling_correlation(capsys, tmp_path):
    from ccbound.correlations import Correlation, Scenario

    # outputs that agree, 0 half the time at y = 0 and nine times in ten at y = 1
    table = np.zeros((2, 2, 2, 2))
    table[:, :, :, 0] = np.diag([0.5, 0.5])[:, :, None]
    table[:, :, :, 1] = np.diag([0.9, 0.1])[:, :, None]
    corr_path = tmp_path / "corr.json"
    dump_correlation(Correlation(Scenario(2, 2, 2, 2), table), corr_path)
    code, out, err = run(capsys, ["localweight", str(corr_path), "--ns"])
    assert (code, out) == (1, "")
    assert err == "error: correlation signals: a marginal moves by more than 1e-09 with the other party's setting\n"


def test_localweight_scenario_mismatch(capsys, tmp_path):
    corr_path = tmp_path / "corr.json"
    target_path = tmp_path / "target.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 0.8), corr_path)
    table = np.full((2, 2, 2, 2), 0.25)
    from ccbound.correlations import Correlation, Scenario

    dump_correlation(Correlation(Scenario(2, 2, 2, 2), table), target_path)
    code, _, err = run(capsys, ["localweight", str(corr_path), "--target", str(target_path)])
    assert code == 1
    assert "mismatch" in err


def test_localweight_out_without_local_component_says_so(capsys, tmp_path):
    from ccbound.correlations import Correlation, Scenario

    ideal_path = tmp_path / "ideal.json"
    out_path = tmp_path / "local.json"
    dump_correlation(chsh_protocol_correlation(math.pi / 4, 1.0), ideal_path)
    code, out, _ = run(
        capsys, ["localweight", str(ideal_path), "--target", str(ideal_path), "--out", str(out_path)]
    )
    assert code == 0
    assert out == f"q_max = 0.000000\nnote: no local component, so {out_path} was not written\n"
    assert not out_path.exists()

    # a PR box has no local content with any nonsignaling remainder
    box = np.array([[[[0.5 * ((a ^ b) == (x & y)) for y in range(2)] for x in range(2)]
                     for b in range(2)] for a in range(2)])
    box_path = tmp_path / "box.json"
    dump_correlation(Correlation(Scenario(2, 2, 2, 2), box), box_path)
    code, out, _ = run(capsys, ["localweight", str(box_path), "--ns", "--out", str(out_path)])
    assert code == 0
    assert out == f"q_max = 0.000000\nnote: no local component, so {out_path} was not written\n"
    assert not out_path.exists()

    # without --out nothing changes
    code, out, _ = run(capsys, ["localweight", str(ideal_path), "--target", str(ideal_path)])
    assert out == "q_max = 0.000000\n"


def test_localweight_off_segment_note(capsys, tmp_path):
    from ccbound.correlations import slice_correlation

    corr_path = tmp_path / "corr.json"
    target_path = tmp_path / "target.json"
    dump_correlation(slice_correlation(0.75, 0.5), corr_path)
    dump_correlation(slice_correlation(-0.7, 0.7), target_path)
    code, out, _ = run(capsys, ["localweight", str(corr_path), "--target", str(target_path)])
    assert (code, out) == (0, "q_max = 0.000000\nnote: no local decomposition along this target\n")


@pytest.mark.parametrize("key", _pinned("localweight"))
def test_localweight_outputs_pinned(tmp_path, monkeypatch, key):
    _assert_pinned(tmp_path, monkeypatch, f"localweight {key}")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS core types are x86-64 kernels")
@pytest.mark.parametrize("mode", ["--target=target.json", "--ns"])
def test_localweight_out_is_the_same_on_every_blas_kernel(tmp_path, mode):
    # a seeded 5522 Werner correlation and its v = 1 target, whose table and
    # local components a BLAS product would round differently per kernel
    corr, target = pins.werner_pair(5522, 5)
    dump_correlation(corr, tmp_path / "corr.json")
    dump_correlation(target, tmp_path / "target.json")
    default = {key: value for key, value in CHILD_ENV.items() if key != "OPENBLAS_CORETYPE"}
    files = []
    for env in (default, {**default, "OPENBLAS_CORETYPE": "Sandybridge"}):
        argv = [sys.executable, "-m", "ccbound.cli", "localweight", "corr.json", mode, "--out", "local.json"]
        subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, check=True, timeout=120)
        files.append((tmp_path / "local.json").read_bytes())
    assert files[0] == files[1] != b""


def _numpy_cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.skipif(not _numpy_cpu_features().get("X86_V4"), reason="numpy dispatches no AVX-512 kernels here")
def test_csv_bytes_are_the_same_on_every_numpy_simd_target(tmp_path):
    # numpy's AVX-512 log2, cos and sin differ from its AVX2 ones in the last
    # bit on some inputs; the CSV commands must not depend on that
    default = {key: value for key, value in CHILD_ENV.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    outputs = []
    for env in (default, {**default, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}):
        outputs.append([
            subprocess.run(
                [sys.executable, "-m", "ccbound.cli", *argv], env=env, capture_output=True, check=True, timeout=120,
            ).stdout
            for argv in (["curve", "--step", "1e-5"], ["region", "--resolution", "401"])
        ])
    assert outputs[0] == outputs[1]
    assert [out.count(b"\n") for out in outputs[0]] == [35_002, 401 * 401 + 2]


# -------------------------------------------------------------- pin table


def test_pin_table_holds_every_case():
    commands = collections.Counter(case.argv[0] for case in pins.PINS.values())
    # intrinsic's 18 cases each print text and --json
    assert commands == {"constants": 3, "bound": 18, "intrinsic": 36, "localweight": 8, "region": 2}


def test_pin_replay_names_exactly_the_case_that_differs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cases = {name: case for name, case in pins.PINS.items() if name.startswith(("constants", "localweight slice"))}
    assert pins.replay(cases, _in_process, tmp_path) == 0
    edited = "localweight slice-ns"
    stdout, written = cases[edited].sha256
    cases[edited] = cases[edited]._replace(sha256=(stdout, "0" * 64))
    capsys.readouterr()
    assert pins.replay(cases, _in_process, tmp_path) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cases) + 1
    assert [line for line in lines if "same" not in line] == [
        f"{edited} DIFFERS: exit 0, sha256 {stdout} {written}", f"1 of {len(cases)} cases differ: {edited}",
    ]


# -------------------------------------------------------- oversized inputs


def _uniform_binary_correlation(n):
    table = np.full((n, n, 2, 2), 0.25).tolist()
    return {"scenario": {"nA": n, "nB": n, "kA": 2, "kB": 2}, "table": table}


@pytest.mark.parametrize(
    "argv, document, message",
    [
        # 2x2x100: a Nelder-Mead gather table of 4 x 10,001 rows of 10,005 entries
        (["intrinsic", "--restarts", "0"], {"alphabets": [2, 2, 100], "p": np.full((2, 2, 100), 1 / 400).tolist()},
         b"error: |E| = 100 needs "),
        # binary 9x9: a 324 x 262,144 vertex matrix (679 MB) and a tableau as big
        (["localweight", "--ns"], _uniform_binary_correlation(9),
         b"error: 324 x 262144 vertex matrix entries exceed the guard of 10000000"),
    ],
    ids=["intrinsic", "localweight"],
)
def test_oversized_inputs_fail_in_one_line(tmp_path, argv, document, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    proc = subprocess.run(
        [sys.executable, "-m", "ccbound.cli", argv[0], str(path), *argv[1:]],
        capture_output=True, env=CHILD_ENV, timeout=60, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(message)


@pytest.mark.parametrize(
    "argv,document",
    [
        (["intrinsic", "--restarts", "0"], {"alphabets": [2, 2, 2], "p": np.full((2, 2, 2), 1e308).tolist()}),
        (["localweight", "--ns"], {**_uniform_binary_correlation(2), "table": np.full((2, 2, 2, 2), 1e308).tolist()}),
        (["bound"], {**_uniform_binary_correlation(2), "table": np.full((2, 2, 2, 2), 1e308).tolist()}),
    ],
    ids=["intrinsic", "localweight", "bound"],
)
def test_overflowing_table_sums_fail_in_one_line(tmp_path, argv, document):
    # the sums overflow to inf; numpy's overflow warning stays off stderr
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    proc = subprocess.run(
        [sys.executable, "-m", "ccbound.cli", argv[0], str(path), *argv[1:]],
        capture_output=True, env=CHILD_ENV, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: probabilities must sum to 1 within 1e-12; worst deviation inf\n"


def test_memory_error_is_one_line(capsys, monkeypatch):
    # an allocation no guard foresaw: a bare MemoryError has no message
    def exhausted(parser, args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_constants", exhausted)
    assert run(capsys, ["constants"]) == (1, "", "error: MemoryError\n")


# ------------------------------------------------------- malformed documents


@pytest.mark.parametrize(
    "argv,document",
    [
        (["localweight", "{path}", "--ns"], {"scenario": {"kB": 2.99}}),
        (["localweight", "{path}", "--ns"], {"scenario": {"nA": True}}),
        (["intrinsic", "{path}"], {"alphabets": [2, 2, 1.9]}),
    ],
    ids=["kB-2.99", "nA-true", "alphabets-1.9"],
)
def test_json_sizes_are_not_truncated(capsys, tmp_path, argv, document):
    # these documents used to load as kB = 2, nA = 1 and alphabets (2, 2, 1)
    if argv[0] == "localweight":
        base = chsh_protocol_correlation(math.pi / 4, 0.8).to_json_dict()
        base["scenario"].update(document["scenario"])
    else:
        base = {"alphabets": document["alphabets"], "p": np.full((2, 2, 1), 0.25).tolist()}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(base))
    code, out, err = run(capsys, [arg.format(path=path) for arg in argv])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "JSON integer" in err


@pytest.mark.parametrize("command", ["intrinsic", "localweight"])
def test_deeply_nested_document_is_an_error(tmp_path, command):
    # json raises RecursionError, not JSONDecodeError, past its nesting limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    extra = ["--ns"] if command == "localweight" else []
    _exits_with_one_error_line([command, str(path), *extra])


INF = "__1e400__"  # written as the literal 1e400, which json reads as inf

BAD_SIZES = st.one_of(
    st.floats(allow_nan=True).filter(lambda f: not f.is_integer()),
    st.integers(-3, 3).map(float),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(1, 3), max_size=2),
    st.just(INF),
)
BAD_ENTRIES = st.one_of(
    st.text(max_size=3), st.none(), st.booleans(), st.just([]), st.just([0.5, 0.5]), st.just({}), st.just(INF)
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _leaf_lists(nested):
    """Every innermost list of a nested table, in order."""
    if nested and isinstance(nested[0], list):
        return [leaf for item in nested for leaf in _leaf_lists(item)]
    return [nested]


@st.composite
def malformed(draw, document, sizes_key, table_key):
    """``document`` broken in one way: a bad size, a bad entry, a ragged or
    reshaped table, empty sizes, or a random JSON value in its place."""
    doc = json.loads(json.dumps(document))
    table = doc[table_key]
    how = draw(st.sampled_from(["size", "entry", "ragged", "deeper", "shorter", "empty", "random"]))
    if how == "size":
        sizes = doc[sizes_key]
        key = draw(st.sampled_from(sorted(sizes) if isinstance(sizes, dict) else range(len(sizes))))
        sizes[key] = draw(BAD_SIZES)
    elif how == "entry":
        leaves = _leaf_lists(table)
        leaf = draw(st.sampled_from(leaves))
        leaf[draw(st.integers(0, len(leaf) - 1))] = draw(BAD_ENTRIES)
    elif how == "ragged":
        draw(st.sampled_from(_leaf_lists(table))).pop()
    elif how == "deeper":
        doc[table_key] = [table]
    elif how == "shorter":
        table.pop()
    elif how == "empty":
        doc[sizes_key] = [] if isinstance(doc[sizes_key], list) else {}
        doc[table_key] = draw(st.sampled_from([[], 0.5, None]))
    else:
        doc = draw(JSON_VALUES)
    return json.dumps(doc).replace(json.dumps(INF), "1e400")


CORRELATION_DOC = chsh_protocol_correlation(math.pi / 4, 0.8).to_json_dict()
DISTRIBUTION_DOC = JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()


def _exits_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 1 and out.getvalue() == "", err.getvalue()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in lines[0]


@settings(max_examples=150, deadline=None)
@given(malformed(DISTRIBUTION_DOC, "alphabets", "p"))
def test_intrinsic_rejects_malformed_documents(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "dist.json"
    path.write_text(text)
    _exits_with_one_error_line(["intrinsic", str(path), "--restarts", "0"])


@settings(max_examples=150, deadline=None)
@given(malformed(CORRELATION_DOC, "scenario", "table"), st.sampled_from(["ns", "corr", "target"]))
def test_localweight_rejects_malformed_documents(tmp_path_factory, text, role):
    folder = tmp_path_factory.mktemp("fuzz")
    bad, good = folder / "bad.json", folder / "good.json"
    bad.write_text(text)
    good.write_text(json.dumps(CORRELATION_DOC))
    argv = {
        "ns": ["localweight", str(bad), "--ns"],
        "corr": ["localweight", str(bad), "--target", str(good)],
        "target": ["localweight", str(good), "--target", str(bad)],
    }[role]
    _exits_with_one_error_line(argv)
