"""End-to-end CLI tests driving the subcommands through main()."""

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

from ccbound import cli
from ccbound.attack import chsh_keyrate_bound, critical_visibility
from ccbound.cli import main
from ccbound.correlations import (
    MeasurementArrangement, chsh_protocol_correlation, dump_correlation, werner_correlation,
)
from ccbound.infotheory import JointDistribution, minimize_intrinsic
from ccbound.regions import region_grid, write_region_csv

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


def test_python_m_ccbound_runs_the_cli():
    procs = [
        subprocess.run([sys.executable, "-m", module, "constants"], capture_output=True, env=CHILD_ENV, timeout=60)
        for module in ("ccbound", "ccbound.cli")
    ]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert procs[0].stdout == procs[1].stdout != b""


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


def test_constants_theta_deg(capsys):
    code, out, _ = run(capsys, ["constants", "--theta-deg", "45"])
    assert code == 0
    assert "protocol_local_visibility = 0.707107" in out


def test_constants_zero_theta_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["constants", "--theta", "0"])
    assert excinfo.value.code != 0


@pytest.mark.parametrize("command", ["constants", "curve", "bound"])
@pytest.mark.parametrize("theta", [["--theta", "1e-17"], ["--theta", "1.1e-16"], ["--theta-deg", "1e-15"]])
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


def test_theta_options_are_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["constants", "--theta", "0.3", "--theta-deg", "60"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


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
    a, b_, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run(capsys, args + ["--out", str(a)])[0] == 0
    assert run(capsys, args + ["--out", str(b_)])[0] == 0
    assert run(capsys, args + ["--out", str(c), "--jobs", "3"])[0] == 0
    assert a.read_bytes() == b_.read_bytes() == c.read_bytes()


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
    # the digest of the curve when every row was formatted from the scalar
    # chsh_keyrate_bound
    out_path = tmp_path / "curve.csv"
    assert main(["curve", "--v-min", "0", "--v-max", "1", "--step", "1e-6", "--out", str(out_path)]) == 0
    data = out_path.read_bytes()
    assert data.count(b"\n") == 1_000_002
    assert hashlib.sha256(data).hexdigest() == "fdd8e0112f9321c3949a988685fd9f6d979796f7d1295416a19e21b8413b57a3"


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


def test_region_jobs_invariant(capsys, tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    run(capsys, ["region", "--resolution", "31", "--out", str(one)])
    run(capsys, ["region", "--resolution", "31", "--out", str(two), "--jobs", "4"])
    assert one.read_bytes() == two.read_bytes()


# sha256 of the region CSV as written by the per-point classifier that
# preceded the array one
REGION_SHA256 = {
    201: "ff3fc7ae139ce398defaa53ba6b8b9d3c6b6fe4800fb1ba42d69f986ad4457ae",
    801: "48e26690819839ad6b4f8c0e6ab18f5acc2d2f70e2950c6997b1311e8e52a6e5",
}


@pytest.mark.parametrize("resolution", sorted(REGION_SHA256))
def test_region_bytes_pinned(capsys, tmp_path, resolution):
    out_path = tmp_path / "region.csv"
    code, _, _ = run(capsys, ["region", "--resolution", str(resolution), "--out", str(out_path)])
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == REGION_SHA256[resolution]


def test_region_stdout_equals_file(capsys, tmp_path):
    out_path = tmp_path / "region.csv"
    run(capsys, ["region", "--resolution", "201", "--out", str(out_path)])
    code, out, err = run(capsys, ["region", "--resolution", "201", "--out", "-"])
    assert code == 0 and err == ""
    assert out.encode("ascii") == out_path.read_bytes()


@pytest.mark.parametrize("resolution", [2, 128, 129, 300])
def test_region_stream_equals_the_written_grid(capsys, resolution):
    # 16,384-point blocks: 128 is exactly one block, 129 blocks of 127 and 2
    # rows, 300 blocks of 54 rows with a last one of 30
    code, out, _ = run(capsys, ["region", "--resolution", str(resolution)])
    stream = io.StringIO()
    write_region_csv(region_grid(resolution), stream)
    assert code == 0 and out == stream.getvalue()


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


# sha256 of `ccbound intrinsic` stdout (text, then --json) on three attack
# inputs and the three criterion-7 inputs, as the minimizer wrote them
# before it stopped at a zero bound and before its kernel passes were
# trimmed: the minimizer's bound, map and Nelder-Mead path stay bit for bit
INTRINSIC_INPUTS = {
    "attack_below": (math.pi / 4, 0.73),  # below v_crit(pi/4) = 0.7445
    "attack_above": (math.pi / 4, 0.85),
    "attack_pi6": (math.pi / 6, 0.8),
    "crit7_attack": (math.pi / 4, 0.72),
}
INTRINSIC_SHA256 = {
    ("attack_below", 0): (
        "90afbb208cf9b067690da3448a2726c40175d56fd2f1cd8d446dc39a7a47cfae",
        "d2401b67de41fb5fb1e818d31fff36f1be062b1208feae52525301087735cf16",
    ),
    ("attack_below", 4): (
        "ffa53d24e06e8083f78200e968e03126673133693ae47783feb3e98af4ca1694",
        "ca02f3f5b9fd8e92ea2eef980cc5298aa3efa37bac6da5a3a3260ae43077c04d",
    ),
    ("attack_below", 32): (
        "b4d06b5a3a4487288569f023b476db863d2434f37c7e8ac755b5569bc2407fe3",
        "a631ccdb7d712f5a62956ca40ec1c7f83168f785e940a51a3e7952bc842a3205",
    ),
    ("attack_above", 0): (
        "0d05d6af6e0fad4e15771245c0c410c49005981086b818295b5a5bd7d695b13c",
        "6f3dabfc8a2f7f3f5476b5cde5f7086ed12bcb690e10c26e3080f927b88b1d55",
    ),
    ("attack_above", 4): (
        "0d05d6af6e0fad4e15771245c0c410c49005981086b818295b5a5bd7d695b13c",
        "6f3dabfc8a2f7f3f5476b5cde5f7086ed12bcb690e10c26e3080f927b88b1d55",
    ),
    ("attack_above", 32): (
        "0d05d6af6e0fad4e15771245c0c410c49005981086b818295b5a5bd7d695b13c",
        "6f3dabfc8a2f7f3f5476b5cde5f7086ed12bcb690e10c26e3080f927b88b1d55",
    ),
    ("attack_pi6", 0): (
        "b90bf4804ff5c2e8e101ab9e65c8e7913fe7b1ac79507c609084b43e5f2e61d2",
        "326481e28e4cd79dcf3754dd13569807b98749063621d86a43a1ff03ca1a8e5e",
    ),
    ("attack_pi6", 4): (
        "b90bf4804ff5c2e8e101ab9e65c8e7913fe7b1ac79507c609084b43e5f2e61d2",
        "326481e28e4cd79dcf3754dd13569807b98749063621d86a43a1ff03ca1a8e5e",
    ),
    ("attack_pi6", 32): (
        "b90bf4804ff5c2e8e101ab9e65c8e7913fe7b1ac79507c609084b43e5f2e61d2",
        "326481e28e4cd79dcf3754dd13569807b98749063621d86a43a1ff03ca1a8e5e",
    ),
    ("crit7_attack", 0): (
        "561e856ecfdd04340362d65360549826cc61eab8543e26a221b168086a39fb59",
        "d890da5f7fee5ec9e6830f0d3d59c514add917c5b07534f9ba7b0bf3ad49f2a9",
    ),
    ("crit7_attack", 4): (
        "66938aa68beed4a285a3083083a7ef672168b5c5c966d57adad96ca6ce994217",
        "3958d10de107fb917a113bf273e198014110bcfa26ae2595586f3b4bafb3fb4f",
    ),
    ("crit7_attack", 32): (
        "42fe5c1a89f3aa4c0cb5f43e7ebca1b7dd6dbd139d4882e0e32069d2b2cf16a8",
        "2bf7511841ccbadaa2c8902d25776a50403cc0ffa83532c1063c0bfa4f8f5f1b",
    ),
    ("crit7_independent", 0): (
        "3d8091d4e9595e4bce14b58fb00b0ca20a6fbe1937e6bd2a71b01adf06f0ede0",
        "f37c1ed62bd483f6dc9f39bdee8c59b946f6ef3311a0f5eb5b2a1a7da76e2678",
    ),
    ("crit7_independent", 4): (
        "3d8091d4e9595e4bce14b58fb00b0ca20a6fbe1937e6bd2a71b01adf06f0ede0",
        "f37c1ed62bd483f6dc9f39bdee8c59b946f6ef3311a0f5eb5b2a1a7da76e2678",
    ),
    ("crit7_independent", 32): (
        "3d8091d4e9595e4bce14b58fb00b0ca20a6fbe1937e6bd2a71b01adf06f0ede0",
        "f37c1ed62bd483f6dc9f39bdee8c59b946f6ef3311a0f5eb5b2a1a7da76e2678",
    ),
    ("crit7_copy", 0): (
        "d05718baab055d207e65244f1ef2c286664c90332d4133cf986558fd51aaf4e7",
        "8a59c02b597fcf1ba76259a43fc3aaa2d5b4dc4277079f5dcb0e41f4f4415237",
    ),
    ("crit7_copy", 4): (
        "d05718baab055d207e65244f1ef2c286664c90332d4133cf986558fd51aaf4e7",
        "8a59c02b597fcf1ba76259a43fc3aaa2d5b4dc4277079f5dcb0e41f4f4415237",
    ),
    ("crit7_copy", 32): (
        "d05718baab055d207e65244f1ef2c286664c90332d4133cf986558fd51aaf4e7",
        "8a59c02b597fcf1ba76259a43fc3aaa2d5b4dc4277079f5dcb0e41f4f4415237",
    ),
}


def _intrinsic_input(name):
    from ccbound.attack import cc_chsh, tripartite

    if name in INTRINSIC_INPUTS:
        return tripartite(cc_chsh(*INTRINSIC_INPUTS[name]), 0, 2)
    pab = np.array([[0.4, 0.1], [0.2, 0.3]])
    if name == "crit7_independent":
        return JointDistribution(np.einsum("ab,e->abe", pab, np.full(4, 0.25)))
    copy = np.zeros((2, 2, 4))
    copy[0, 0, 0], copy[0, 1, 1], copy[1, 0, 2], copy[1, 1, 3] = pab.ravel()
    return JointDistribution(copy)


@pytest.mark.parametrize("name, restarts", sorted(INTRINSIC_SHA256))
def test_intrinsic_outputs_pinned(capsys, tmp_path, monkeypatch, name, restarts):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(_intrinsic_input(name).to_json_dict()))
    # both formats print one minimization, run once
    results = []

    def once(dist, restarts, seed):
        if not results:
            results.append(minimize_intrinsic(dist, restarts=restarts, seed=seed))
        return results[0]

    monkeypatch.setattr(cli, "minimize_intrinsic", once)
    digests = []
    for extra in ([], ["--json"]):
        code, out, _ = run(capsys, ["intrinsic", str(path), "--restarts", str(restarts), *extra])
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == INTRINSIC_SHA256[name, restarts]


# sha256 of `ccbound constants` and `ccbound bound` stdout on protocol
# correlations, as printed while Correlation, JointDistribution and
# StochasticMap still hand-rolled their immutability
CONSTANTS_OPTIONS = {"text": [], "json": ["--json"], "theta": ["--theta", "0.3"]}
CONSTANTS_SHA256 = {
    "text": "426eba0c5f528c749ad4267ed1d0c5ca590736140c782b4a1bf827869ebb6ff0",
    "json": "13dd4b04685f7ff13e93064895eb18fb40d40b2599268ef432c6dd505511a67f",
    "theta": "1fec63181ee002e28504bf7289c1c54f801f97342a334db82d1c4dfcc9f1fe3b",
}
BOUND_INPUTS = {
    "pi4_073": (math.pi / 4, 0.73),
    "pi6_08": (math.pi / 6, 0.8),
    "pi4_09": (math.pi / 4, 0.9),
    "pi4_1": (math.pi / 4, 1.0),
}
BOUND_OPTIONS = {
    "text": [],
    "json": ["--json"],
    "settings": ["--setting", "0,2", "--setting", "1,1"],
    "lambda": ["--lambda", "0.5"],
}
# every setting pair of the protocol: (1, 2) has agreement 1/2 and (1, 1) is
# the anticorrelated pair, whose map and fraction are mirrored
ALL_PAIRS = [arg for pair in ("0,0", "0,1", "0,2", "1,0", "1,1", "1,2") for arg in ("--setting", pair)]
for fraction in ("auto", "0.3"):
    BOUND_OPTIONS[f"pairs_{fraction}"] = [*ALL_PAIRS, "--lambda", fraction]
    BOUND_OPTIONS[f"pairs_{fraction}_json"] = [*ALL_PAIRS, "--lambda", fraction, "--json"]
BOUND_SHA256 = {
    ("pi4_073", "text"): "7089e179592fe46f0d24a077fe98a0ae37ad72c5c0a2f3bb1bf8ea2e02108f9f",
    ("pi4_073", "json"): "85d92223d5de71da391594cc9c8c510ae363ab93bdfeca2e46144d7638e14a73",
    ("pi4_073", "settings"): "c4eb4621b4ae2d766df112a14416056727298fc13f16126ce77e46426c3f3642",
    ("pi4_073", "lambda"): "574f31b37d3738463a210e7135c795e12888fb9e4a5ba163eb031fc2d4ef968e",
    ("pi6_08", "text"): "da6639da3501b9838ed44189057661907e245e22d0907852bd3ba7ad8d294115",
    ("pi6_08", "json"): "1cf8ef52f67b0797f57e3f4ae8f72f4081cca12dce930f62876e1d81692bd022",
    ("pi6_08", "settings"): "b4cfb2b3db780b113095714c753275e4c6879cebd0a62dcf624877a357e2c641",
    ("pi6_08", "lambda"): "68c0073972df419f1abed22121cfb4c30f4a2338d71ef27fd79dff55dfb14f59",
    ("pi4_09", "text"): "2572ddef16004233afad9c449aef1b3fe6657fb935acc31f7ca74e5be955964e",
    ("pi4_09", "json"): "497ace3f7a220fc94a8183dd68e42461a85ffc249b8349e57e53a339c692dfd3",
    ("pi4_09", "settings"): "e46a773939849d0ecec746cf1d9a0a289172bc528d0482ab009e02d4693cf233",
    ("pi4_09", "lambda"): "84ff7fd4bd914573661777b1f7b49bcdd99a57f2019a153844cc00a0b59db644",
    # taken while the attack still read each pair's agreement from the Bloch vectors
    ("pi6_08", "pairs_auto"): "3aa165c846f49fcdc7f5b4000fcf0f2593c0c4e538bc25ae6604041664797f0b",
    ("pi6_08", "pairs_auto_json"): "6a926e47349c1e14cd1cf496632544871e084a7397007cc3abdb0381651056a8",
    ("pi6_08", "pairs_0.3"): "e2857e842f28d3a2e7404d501a6f2f25ca218926e5cf056f389e5fb2e44f4e9d",
    ("pi6_08", "pairs_0.3_json"): "c5eeb123d84b6f9b64600c34fc40ea31fd3afd11fa7b215ccfb1c70dcf50ea2a",
    # taken while 'auto' still reached 1 by catching the threshold check's error;
    # at v = 1 every pair has local weight 0
    ("pi4_1", "pairs_auto"): "048628d7c0f30dbd4aea46728f73f61481352bdf34d53ab92a5a7343fe6ae8e5",
    ("pi4_1", "pairs_auto_json"): "f57d0c255e5c40467c1b78c10bf8c6353f5c5ba3ad8bd1fcb029e8085d4bd8d1",
}


@pytest.mark.parametrize("options", sorted(CONSTANTS_SHA256))
def test_constants_outputs_pinned(capsys, options):
    code, out, _ = run(capsys, ["constants", *CONSTANTS_OPTIONS[options]])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTANTS_SHA256[options]


@pytest.mark.parametrize("name, options", sorted(BOUND_SHA256))
def test_bound_outputs_pinned(capsys, tmp_path, name, options):
    theta, v = BOUND_INPUTS[name]
    path = tmp_path / "corr.json"
    dump_correlation(chsh_protocol_correlation(theta, v), path)
    code, out, _ = run(capsys, ["bound", str(path), "--theta", repr(theta), *BOUND_OPTIONS[options]])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUND_SHA256[name, options]


def test_intrinsic_seed_env_override(capsys, tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(12)).reshape(2, 2, 3)
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(p).to_json_dict()))
    monkeypatch.setenv("CCBOUND_SEED", "123")
    code1, out1, _ = run(capsys, ["intrinsic", str(path), "--restarts", "2"])
    code2, out2, _ = run(capsys, ["intrinsic", str(path), "--restarts", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_intrinsic_rejects_non_integer_seed_env(capsys, tmp_path, monkeypatch):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()))
    monkeypatch.setenv("CCBOUND_SEED", "abc")
    code, out, err = run(capsys, ["intrinsic", str(path), "--restarts", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "CCBOUND_SEED" in err


def test_intrinsic_rejects_negative_restarts(capsys, tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()))
    code, out, err = run(capsys, ["intrinsic", str(path), "--restarts", "-3"])
    assert (code, out, err) == (1, "", "error: restarts must be >= 0, got -3\n")


@pytest.mark.parametrize("restarts", ["0", "2"])
@pytest.mark.parametrize("from_env", [False, True])
def test_intrinsic_rejects_negative_seed(capsys, tmp_path, monkeypatch, restarts, from_env):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()))
    if from_env:
        monkeypatch.setenv("CCBOUND_SEED", "-1")
    seed_args = [] if from_env else ["--seed", "-1"]
    code, out, err = run(capsys, ["intrinsic", str(path), "--restarts", restarts, *seed_args])
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


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS core types are x86-64 kernels")
@pytest.mark.parametrize("mode", ["--target=target.json", "--ns"])
def test_localweight_out_is_the_same_on_every_blas_kernel(tmp_path, mode):
    # a seeded 5522 Werner correlation and its v = 1 target, whose table and
    # local components a BLAS product would round differently per kernel
    rng = np.random.default_rng(5522)
    vectors = [[x / math.hypot(*v) for x in v] for v in rng.normal(size=(10, 3)).tolist()]
    arrangement = MeasurementArrangement(tuple(vectors[:5]), tuple(vectors[5:]))
    dump_correlation(werner_correlation(0.9, arrangement), tmp_path / "corr.json")
    dump_correlation(werner_correlation(1.0, arrangement), tmp_path / "target.json")
    default = {key: value for key, value in CHILD_ENV.items() if key != "OPENBLAS_CORETYPE"}
    files = []
    for env in (default, {**default, "OPENBLAS_CORETYPE": "Sandybridge"}):
        argv = [sys.executable, "-m", "ccbound", "localweight", "corr.json", mode, "--out", "local.json"]
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
                [sys.executable, "-m", "ccbound", *argv], env=env, capture_output=True, check=True, timeout=120,
            ).stdout
            for argv in (["curve", "--step", "1e-5"], ["region", "--resolution", "401"])
        ])
    assert outputs[0] == outputs[1]
    assert [out.count(b"\n") for out in outputs[0]] == [35_002, 401 * 401 + 2]


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
        [sys.executable, "-m", "ccbound", argv[0], str(path), *argv[1:]],
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
        [sys.executable, "-m", "ccbound", argv[0], str(path), *argv[1:]],
        capture_output=True, env=CHILD_ENV, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: probabilities must sum to 1 within 1e-12; worst deviation inf\n"


def test_memory_error_is_one_line(capsys, monkeypatch):
    # an allocation no guard foresaw: a bare MemoryError has no message
    def exhausted(parser, args):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "constants", exhausted)
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
