"""End-to-end CLI tests driving the subcommands through main()."""

import contextlib
import hashlib
import io
import json
import math
import os
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
from ccbound.cli import main
from ccbound.correlations import chsh_protocol_correlation, dump_correlation
from ccbound.infotheory import JointDistribution

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
    from ccbound.infotheory import minimize_intrinsic

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
