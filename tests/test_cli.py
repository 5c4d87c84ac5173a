import json
import math
import os

import numpy as np
import pytest

import cascade_lab as cl
from cascade_lab.cli import demo_configs, main
from cascade_lab.config import config_hash, validate_config


@pytest.fixture
def demo_dir(tmp_path):
    out = tmp_path / "cfgs"
    assert main(["demo", "--out", str(out)]) == 0
    return out


def _small_wave(demo_dir, tmp_path, **overrides):
    with open(demo_dir / "demo_wave_cascade.json") as fh:
        cfg = json.load(fh)
    cfg["domain"]["n"] = [60]
    cfg["hum"]["K_filter"] = 10
    cfg["time"]["T"] = 3.0
    cfg["output_dir"] = str(tmp_path / "run")
    cfg.update(overrides)
    path = tmp_path / "wave.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path, cfg


def test_demo_writes_valid_configs(demo_dir):
    names = sorted(os.listdir(demo_dir))
    assert "demo_wave_cascade.json" in names
    assert "demo_heat_cascade.json" in names
    for name in names:
        with open(demo_dir / name) as fh:
            validate_config(json.load(fh))


def test_control_run_and_replay_roundtrip(demo_dir, tmp_path, capsys):
    path, cfg = _small_wave(demo_dir, tmp_path)
    assert main(["control", "--config", str(path)]) == 0
    out = cfg["output_dir"]
    for artifact in ("report.json", "control.csv", "initial_state.csv", "spectra.csv"):
        assert os.path.exists(os.path.join(out, artifact))
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert report["verdict"] == "pass"
    assert report["hum"]["terminal_energy_filtered"] <= 1e-8 * report["hum"]["initial_energy"]
    assert main(["replay", out]) == 0


def test_replay_detects_perturbed_control(demo_dir, tmp_path):
    path, cfg = _small_wave(demo_dir, tmp_path)
    assert main(["control", "--config", str(path)]) == 0
    out = cfg["output_dir"]
    csv_path = os.path.join(out, "control.csv")
    with open(csv_path) as fh:
        lines = fh.read().split("\n")
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) == 5 and parts[0] != "t":
            v = float(parts[3])
            if abs(v) > 1e-3:
                parts[3] = repr(v * 1.01)
                lines[i] = ",".join(parts)
                break
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines))
    assert main(["replay", out]) == 2


def test_replay_empty_directory_fails(tmp_path):
    assert main(["replay", str(tmp_path / "nothing")]) == 1


def test_gcc_pass_and_fail_exit_codes(demo_dir, tmp_path):
    path, _ = _small_wave(demo_dir, tmp_path)
    assert main(["gcc", "--config", str(path)]) == 0
    assert main(["gcc", "--config", str(demo_dir / "strip_square.json"),
                 "--out", str(tmp_path / "strip")]) == 2


def test_zero_coupling_control_fails(demo_dir, tmp_path):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["control", "--config", str(demo_dir / "zero_coupling.json"),
                     "--out", str(tmp_path / "zc")])
    assert code == 2


def test_control_report_says_why_synthesis_failed(demo_dir, tmp_path):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        main(["control", "--config", str(demo_dir / "zero_coupling.json"),
              "--out", str(tmp_path / "zc")])
    with open(tmp_path / "zc" / "report.json") as fh:
        hum = json.load(fh)["hum"]
    assert hum["failure_reason"] == "rank-deficient" and hum["stagnated"]
    gram = hum["gramian"]
    assert set(gram) == {"dim", "lambda_min", "lambda_max", "cond", "rank", "rank_threshold"}
    assert gram["rank"] < gram["dim"] == 48
    assert gram["rank_threshold"] == pytest.approx(1e-12 * gram["lambda_max"])


@pytest.mark.parametrize("key,value", [("stall_window", 20), ("max_iter", -1), ("max_iter", "ten")])
def test_config_rejects_bad_hum_entries(key, value):
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    cfg["hum"][key] = value
    with pytest.raises(cl.ConfigError):
        validate_config(cfg)


@pytest.mark.parametrize("section,key,value", [
    ("hum", "K_filter", "ten"), ("time", "T", "six"), ("domain", "n", ["x"]),
    ("gcc", "n_rays", "many"),
])
def test_non_numeric_config_value_exits_1(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    cfg[section][key] = value
    cfg["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path)]) == 1
    assert f"{section}.{key} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value,message", [
    # numeric strings: float() takes them, but the config hash would differ
    ("hum", "K_filter", "10", "hum.K_filter must be a number"),
    ("time", "T", "3", "time.T must be a number"),
    ("domain", "n", ["60"], "domain.n must be a number"),
    # JSON true is not the integer 1
    ("hum", "K_filter", True, "hum.K_filter must be a number"),
    ("hum", "max_iter", True, "hum.max_iter must be a number"),
    ("domain", "n", [False], "domain.n must be a number"),
    # Python's json parses NaN and Infinity
    ("domain", "extents", [math.inf], "domain.extents must be a finite number"),
    ("time", "T", math.nan, "time.T must be a finite number"),
    ("hum", "eps", -math.inf, "hum.eps must be a finite number"),
    ("gcc", "dt_ray", math.inf, "gcc.dt_ray must be a finite number"),
])
def test_string_bool_and_non_finite_config_values_exit_1(tmp_path, capsys, section, key, value,
                                                         message):
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    cfg[section][key] = value
    cfg["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("where,value", [("seed", True), ("seed", -1), ("random", -1)])
def test_config_rejects_bool_and_negative_seeds(where, value):
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    if where == "seed":
        cfg["seed"] = value
    else:
        cfg["initial"][0] = {"component": 1, "random": {"seed": value}}
    with pytest.raises(cl.ConfigError, match="seed must be a"):
        validate_config(cfg)


@pytest.mark.parametrize("section,key,value", [
    ("hum", "K_filter", 10.9), ("domain", "n", [60.7]), ("gcc", "n_rays", 402.5),
    ("analysis", "K", 2.5), ("analysis", "n_samples", 5.5), ("analysis", "levels", [40.5]),
    ("initial", "position_modes", [[1.5, 1.0]]),
])
def test_non_integral_config_value_exits_1(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    if section == "initial":
        cfg["initial"][0][key] = value
    else:
        cfg.setdefault(section, {})[key] = value
    cfg["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path)]) == 1
    assert f"{section}.{key} must be an integer" in capsys.readouterr().err


def test_integral_float_config_value_is_accepted():
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    cfg["hum"]["K_filter"] = 30.0
    cfg["analysis"] = {"K": 3.0, "levels": [200.0]}
    validate_config(cfg)


def test_check_subcommand(demo_dir, tmp_path):
    path, cfg = _small_wave(demo_dir, tmp_path)
    assert main(["check", "--config", str(path)]) == 0
    with open(os.path.join(cfg["output_dir"], "report.json")) as fh:
        report = json.load(fh)
    hyp = report["hypotheses"]
    assert hyp["flags"]["coercivity"] and hyp["flags"]["coupling"]
    assert hyp["coercivity_constant"] > 0


def test_kalman_subcommand_exit_codes(tmp_path, demo_dir):
    # constant full-domain coupling: exit 0; zero amplitude: exit 2
    with open(demo_dir / "demo_wave_cascade.json") as fh:
        cfg = json.load(fh)
    cfg["domain"]["n"] = [40]
    cfg["hum"]["K_filter"] = 6
    cfg["coupling"] = [{"pair": [1, 2], "boxes": [[[0.0, 1.0]]], "amplitude": 1.0}]
    cfg["control"] = [{"component": 2, "kind": "distributed",
                       "boxes": [[[0.0, 1.0]]], "amplitude": 1.0}]
    cfg["output_dir"] = str(tmp_path / "kal")
    path = tmp_path / "kal.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["kalman", "--config", str(path)]) == 0
    cfg["coupling"][0]["amplitude"] = 0.0
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["kalman", "--config", str(path)]) == 2


def test_observability_subcommand(demo_dir, tmp_path):
    path = tmp_path / "obs.json"
    with open(demo_dir / "demo_wave_cascade.json") as fh:
        base = json.load(fh)
    base["domain"]["n"] = [50]
    base["hum"]["K_filter"] = 6
    base["time"]["T"] = 2.0
    base["time"]["dt"] = 0.0125
    base["analysis"] = {"t_grid": [1.0, 2.0], "K": 3}
    base["output_dir"] = str(tmp_path / "obs")
    with open(path, "w") as fh:
        json.dump(base, fh)
    assert main(["observability", "--config", str(path)]) == 0
    with open(tmp_path / "obs" / "report.json") as fh:
        report = json.load(fh)
    ests = [entry["c1_est"] for entry in report["observability"]]
    assert ests[1] >= ests[0] - 1e-12


def test_unknown_subcommand_usage_error():
    assert main(["frobnicate"]) == 1


def test_config_rejects_unknown_keys(tmp_path):
    cfg = demo_configs()["demo_wave_cascade.json"]
    cfg = json.loads(json.dumps(cfg))
    cfg["typo_key"] = 1
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["control", "--config", str(path)]) == 1


def test_config_rejects_bad_region(tmp_path):
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    cfg["coupling"][0]["boxes"] = [[[0.4, 0.2]]]
    path = tmp_path / "bad2.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["control", "--config", str(path)]) == 1


def test_config_hash_stable_under_reordering():
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    reordered = dict(reversed(list(cfg.items())))
    assert config_hash(cfg) == config_hash(reordered)
    cfg["seed"] = cfg["seed"] + 1
    assert config_hash(cfg) != config_hash(reordered)


def test_outputs_bitwise_deterministic(demo_dir, tmp_path):
    p1, c1 = _small_wave(demo_dir, tmp_path, output_dir=str(tmp_path / "d1"))
    with open(p1) as fh:
        cfg = json.load(fh)
    cfg["output_dir"] = str(tmp_path / "d2")
    p2 = tmp_path / "wave2.json"
    with open(p2, "w") as fh:
        json.dump(cfg, fh)
    # note: p1 already carries output_dir d1 via overrides
    assert main(["control", "--config", str(p1)]) == 0
    assert main(["control", "--config", str(p2)]) == 0
    for name in ("control.csv", "initial_state.csv", "spectra.csv"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()


def test_dissipative_control_and_replay(demo_dir, tmp_path):
    with open(demo_dir / "demo_heat_cascade.json") as fh:
        cfg = json.load(fh)
    cfg["domain"]["n"] = [50]
    cfg["hum"] = {"K_filter": 8, "eps": 1e-4, "cg_tol": 1e-9}
    cfg["time"] = {"T": 0.3, "dt": 0.003}
    cfg["output_dir"] = str(tmp_path / "heat_run")
    path = tmp_path / "heat.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["control", "--config", str(path)]) == 0
    assert main(["replay", cfg["output_dir"]]) == 0


def test_indicator_taper_ramps_edges():
    g = cl.build_grid([1.0], [99])
    r = cl.region_from_bounds([[0.3, 0.7]], 2.0)
    sharp = cl.indicator_vector(r, g)
    soft = cl.indicator_vector(r, g, taper=0.1)
    assert np.all(soft <= sharp + 1e-15)
    x = g.axis_nodes(0)
    mid = np.argmin(np.abs(x - 0.5))
    edge = np.argmin(np.abs(x - 0.32))
    assert soft[mid] == pytest.approx(2.0)
    assert 0.0 < soft[edge] < 2.0


def test_control_snapshots_write_trajectory(demo_dir, tmp_path):
    path, cfg = _small_wave(demo_dir, tmp_path)
    assert main(["control", "--config", str(path), "--snapshots", "4"]) == 0
    traj = os.path.join(cfg["output_dir"], "trajectory.csv")
    assert os.path.exists(traj)
    with open(traj) as fh:
        header = fh.readline().strip()
    assert header == "t,component,index,value_re,value_im"


def test_sweep_eps_subcommand(demo_dir, tmp_path):
    with open(demo_dir / "demo_heat_cascade.json") as fh:
        cfg = json.load(fh)
    cfg["domain"]["n"] = [60]
    cfg["hum"]["K_filter"] = 8
    cfg["hum"]["eps_list"] = [1e-2, 1e-3, 1e-4]
    cfg["time"] = {"T": 0.3, "dt": 0.003}
    cfg["output_dir"] = str(tmp_path / "sweep")
    path = tmp_path / "sweep.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["sweep-eps", "--config", str(path)]) == 0
    with open(tmp_path / "sweep" / "report.json") as fh:
        report = json.load(fh)
    assert len(report["sweep"]["terminal_norms"]) == 3
    assert report["sweep"]["terminal_norms"] == sorted(report["sweep"]["terminal_norms"],
                                                       reverse=True)


def test_thread_env_does_not_change_results(monkeypatch):
    r = cl.region_from_bounds([[0.3, 0.6]], 1.0)
    base = cl.gcc_check(r, (1.0,), 1.5, 300, 0.01)
    monkeypatch.setenv("CASCADE_LAB_THREADS", "4")
    threaded = cl.gcc_check(r, (1.0,), 1.5, 300, 0.01)
    assert base.to_dict() == threaded.to_dict()


def test_degenerate_ratio_sample_skipped():
    from cascade_lab.analysis import _ratio_or_none

    assert _ratio_or_none(0.0, 0.0) is None
    assert _ratio_or_none(1.0, 2.0) == 0.5


def test_random_initial_data_is_seeded(tmp_path, demo_dir):
    with open(demo_dir / "demo_wave_cascade.json") as fh:
        cfg = json.load(fh)
    cfg["domain"]["n"] = [40]
    cfg["hum"]["K_filter"] = 6
    cfg["initial"] = [{"component": 1, "random": {"norm": 1.0, "seed": 7}}]
    from cascade_lab.config import build_experiment

    e1 = build_experiment(json.loads(json.dumps(cfg)))
    e2 = build_experiment(json.loads(json.dumps(cfg)))
    assert np.array_equal(e1.Y0.w, e2.Y0.w)
    assert np.array_equal(e1.Y0.wp, e2.Y0.wp)
    energy = cl.energy(e1.sys, e1.Y0)
    assert math.isclose(2 * energy.total, 1.0, rel_tol=1e-9)
