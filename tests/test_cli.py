"""End-to-end CLI tests driving the subcommands through main()."""

import json
import math
import os

import numpy as np
import pytest

from ccbound.cli import main
from ccbound.correlations import chsh_protocol_correlation, dump_correlation
from ccbound.infotheory import JointDistribution

PI4_STR = repr(math.pi / 4)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_intrinsic_rejects_non_integer_seed_env(capsys, tmp_path, monkeypatch):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()))
    monkeypatch.setenv("CCBOUND_SEED", "abc")
    code, out, err = run(capsys, ["intrinsic", str(path), "--restarts", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "CCBOUND_SEED" in err


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
