import json
import math
import os

import numpy as np
import pytest

import cascade_lab as cl
from cascade_lab.cli import demo_configs, main
from cascade_lab.config import config_hash


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
            cl.build_experiment(json.load(fh))


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


def test_replay_empty_directory_fails(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "nothing")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "nothing" / "report.json") in err


def test_gcc_pass_and_fail_exit_codes(demo_dir, tmp_path):
    path, _ = _small_wave(demo_dir, tmp_path)
    assert main(["gcc", "--config", str(path)]) == 0
    assert main(["gcc", "--config", str(demo_dir / "strip_square.json"),
                 "--out", str(tmp_path / "strip")]) == 2
    # rays starting on an edge of the strip enter at 0.0, never at -0.0
    (entry,) = json.loads((tmp_path / "strip" / "report.json").read_text())["gcc"]
    assert entry["min_hit_time"] == 0.0 and math.copysign(1.0, entry["min_hit_time"]) == 1.0


def test_gcc_and_control_report_one_horizon_on_the_heat_demo(demo_dir, tmp_path):
    """A dissipative config is swept to max(T, default horizon) by both
    `gcc` and the `control` report, with the same verdicts."""
    config = str(demo_dir / "demo_heat_cascade.json")
    assert main(["gcc", "--config", config, "--out", str(tmp_path / "gcc")]) == 0
    assert main(["control", "--config", config, "--out", str(tmp_path / "control")]) == 0
    reports = []
    for name in ("gcc", "control"):
        with open(tmp_path / name / "report.json") as fh:
            reports.append(json.load(fh)["gcc"])
    gcc, control = reports
    assert len(gcc) == len(control) == 2
    for a, b in zip(gcc, control):
        assert a["horizon"] == b["horizon"] > demo_configs()["demo_heat_cascade.json"]["time"]["T"]
        assert a["verdict"] == b["verdict"] == "pass"
        assert a["rays_hit"] == b["rays_hit"] == a["rays_total"]

    # gcc.T still sets the horizon
    cfg = demo_configs()["demo_heat_cascade.json"]
    cfg["gcc"] = {"T": cfg["time"]["T"]}
    path = tmp_path / "heat_gcc_T.json"
    path.write_text(json.dumps(cfg))
    assert main(["gcc", "--config", str(path), "--out", str(tmp_path / "gcc_T")]) == 2
    with open(tmp_path / "gcc_T" / "report.json") as fh:
        assert {r["horizon"] for r in json.load(fh)["gcc"]} == {cfg["time"]["T"]}


def test_control_report_gcc_block_equals_the_gcc_report(tmp_path):
    """`gcc` and the `control` report run one GCC routine on the same rays."""
    cfg = demo_configs()["demo_wave_cascade.json"]
    cfg["gcc"]["n_rays"] = 100
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(cfg))
    blocks = []
    for command in ("gcc", "control"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
        blocks.append(json.loads((tmp_path / command / "report.json").read_text())["gcc"])
    assert blocks[0] == blocks[1]
    assert all(e["rays_total"] == 100 and "worst_entry_time_exact" in e for e in blocks[0])


def test_gcc_dt_ray_is_accepted_and_noted_as_ignored():
    cfg = demo_configs()["demo_wave_cascade.json"]
    assert "dt_ray is ignored" not in " ".join(cl.build_experiment(cfg).notes)
    cfg["gcc"]["dt_ray"] = 0.005
    assert cl.build_experiment(cfg).notes == ["gcc.dt_ray is ignored: the GCC check is exact"]


# one changed value per key of the sections a subcommand reads lazily, and
# the subcommand whose report must show the change
SECTION_KEY_CHANGES = {
    ("gcc", "n_rays"): (100, "gcc"),
    ("gcc", "dt_ray"): (0.005, "gcc"),
    ("gcc", "T"): (3.0, "gcc"),
    ("analysis", "n_samples"): (1, "check"),
    ("analysis", "levels"): ([100, 200], "check"),
    ("analysis", "t_grid"): ([3.0, 6.0], "observability"),
    ("analysis", "K"): (3, "observability"),
}


def test_section_key_table_covers_the_schema():
    from cascade_lab.config import _SECTION_KEYS

    assert set(SECTION_KEY_CHANGES) == {(s, k) for s, keys in _SECTION_KEYS.items() for k in keys}


@pytest.mark.parametrize("section,key", sorted(SECTION_KEY_CHANGES))
def test_every_gcc_and_analysis_key_changes_a_report(tmp_path, section, key):
    value, command = SECTION_KEY_CHANGES[section, key]
    base = demo_configs()["demo_wave_cascade.json"]
    changed = json.loads(json.dumps(base))
    changed.setdefault(section, {})[key] = value
    assert base.get(section, {}).get(key) != value

    def report(cfg, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / name)]) == 0
        payload = json.loads((tmp_path / name / "report.json").read_text())
        del payload["config"], payload["config_hash"]
        return payload

    first = report(base, "base")
    assert report(base, "again") == first
    assert report(changed, "changed") != first


def test_analysis_n_samples_sets_only_the_admissibility_samples(tmp_path):
    """`analysis.n_samples` counts the admissibility samples; the coupling
    bounds of `check` and of the `control` report are the closed-form
    multiplier values on the grid support of the coupling region, which has
    two amplitudes."""
    cfg = demo_configs()["demo_wave_cascade.json"]
    cfg["domain"]["n"] = [60]
    cfg["hum"]["K_filter"] = 10
    cfg["time"]["T"] = 3.0
    cfg["coupling"][0].update(boxes=[[[0.2, 0.3]], [[0.3, 0.4]]], amplitude=[1.0, 2.0])
    exp = cl.build_experiment(cfg)
    expected = cl.coupling_bounds(exp.coupling_regions[0], exp.grid)

    hypotheses = {}
    for name, command, n_samples in [("a", "check", 2), ("b", "check", 10), ("c", "control", 10)]:
        cfg["analysis"] = {"n_samples": n_samples}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / name)]) == 0
        hypotheses[name] = json.loads((tmp_path / name / "report.json").read_text())["hypotheses"]
    for name in "abc":
        assert hypotheses[name]["coupling"] == [expected]
    assert hypotheses["a"]["admissibility"] != hypotheses["b"]["admissibility"]


def _resolved(obj):
    """A comparable picture of what a config resolves to: dataclasses and other
    objects by their attributes, arrays by dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__, tuple(_resolved(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((repr(k), _resolved(obj[k])) for k in sorted(obj, key=repr))
    if hasattr(obj, "__dict__"):
        return type(obj).__name__, _resolved(vars(obj))
    return obj


def _experiment_without_cfg(cfg):
    attrs = dict(vars(cl.build_experiment(cfg)))
    del attrs["cfg"]
    return _resolved(attrs)


def _boundary_wave(cfg):
    cfg["control"] = [{"component": 2, "kind": "boundary", "end": "right", "gain": 1.0}]


def _random_initial(cfg):
    cfg["initial"][0] = {"component": 1, "random": {"norm": 1.0, "seed": 3}}


def _swap_initial_components(cfg):
    cfg["initial"][0]["component"], cfg["initial"][1]["component"] = 2, 1


def _to_hyperbolic(cfg):
    # the companion changes keep the config valid and the initial field equal
    del cfg["family"]["theta"]
    cfg["family"]["kind"] = "hyperbolic"
    del cfg["hum"]["eps_list"]
    for entry in cfg["initial"]:
        entry["position_modes"], entry["velocity_modes"] = entry.pop("modes"), []


def _to_boundary(cfg):
    del cfg["control"][0]["boxes"], cfg["control"][0]["amplitude"]
    cfg["control"][0].update(kind="boundary", end="right")


def _set(path, value):
    """Set one entry of a config, addressed by a path of keys and indices."""
    def change(cfg):
        target = cfg
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return change


WAVE, HEAT = "demo_wave_cascade.json", "demo_heat_cascade.json"
# one change per key of the sections `build_experiment` resolves eagerly:
# (base demo, preparation of the base or None, change)
EAGER_KEY_CHANGES = {
    "domain.extents": (WAVE, None, _set(["domain", "extents"], [1.5])),
    "domain.n": (WAVE, None, _set(["domain", "n"], [150])),
    "family.kind": (HEAT, None, _to_hyperbolic),
    "family.theta": (HEAT, None, _set(["family", "theta"], 0.3)),
    "N": (WAVE, None, _set(["N"], 3)),
    "time.T": (WAVE, None, _set(["time", "T"], 5.0)),
    "time.dt": (WAVE, None, _set(["time", "dt"], 0.002)),
    "hum.K_filter": (WAVE, None, _set(["hum", "K_filter"], 20)),
    "hum.eps": (WAVE, None, _set(["hum", "eps"], 1e-6)),
    "hum.cg_tol": (WAVE, None, _set(["hum", "cg_tol"], 1e-9)),
    "hum.max_iter": (WAVE, None, _set(["hum", "max_iter"], 100)),
    "hum.eps_list": (WAVE, None, _set(["hum", "eps_list"], [1e-2, 1e-3, 1e-4])),
    "coupling.pair": (WAVE, _set(["N"], 3), _set(["coupling", 0, "pair"], [1, 3])),
    "coupling.boxes": (WAVE, None, _set(["coupling", 0, "boxes"], [[[0.2, 0.5]]])),
    "coupling.amplitude": (WAVE, None, _set(["coupling", 0, "amplitude"], 2.0)),
    "coupling.label": (WAVE, None, _set(["coupling", 0, "label"], "O")),
    "control.component": (WAVE, _set(["N"], 3), _set(["control", 0, "component"], 3)),
    "control.kind": (WAVE, None, _to_boundary),
    "control.boxes": (WAVE, None, _set(["control", 0, "boxes"], [[[0.6, 0.9]]])),
    "control.amplitude": (WAVE, None, _set(["control", 0, "amplitude"], 2.0)),
    "control.end": (WAVE, _boundary_wave, _set(["control", 0, "end"], "left")),
    "control.gain": (WAVE, _boundary_wave, _set(["control", 0, "gain"], 2.0)),
    "control.label": (WAVE, None, _set(["control", 0, "label"], "omega")),
    "initial.component": (WAVE, None, _swap_initial_components),
    "initial.position_modes": (WAVE, None, _set(["initial", 0, "position_modes"], [[1, 2.0]])),
    "initial.velocity_modes": (WAVE, None, _set(["initial", 0, "velocity_modes"], [[1, 1.0]])),
    "initial.modes": (HEAT, None, _set(["initial", 0, "modes"], [[2, 1.0]])),
    "initial.random.norm": (WAVE, _random_initial, _set(["initial", 0, "random", "norm"], 2.0)),
    "initial.random.seed": (WAVE, _random_initial, _set(["initial", 0, "random", "seed"], 4)),
    "seed": (WAVE, None, _set(["seed"], 1)),
}


def test_eager_key_table_covers_the_top_level_sections():
    from cascade_lab.config import _SECTION_KEYS, _TOP_KEYS

    sections = {key.split(".")[0] for key in EAGER_KEY_CHANGES}
    # p is only checked (test_p_is_a_check_on_the_free_block)
    assert sections == _TOP_KEYS - set(_SECTION_KEYS) - {"output_dir", "p"}


@pytest.mark.parametrize("key", sorted(EAGER_KEY_CHANGES))
def test_every_eagerly_built_key_changes_the_experiment(key):
    """Each key of the sections `build_experiment` resolves changes the
    resolved Experiment, compared without its echoed config."""
    name, prepare, change = EAGER_KEY_CHANGES[key]
    base = demo_configs()[name]
    if prepare is not None:
        prepare(base)
    changed = json.loads(json.dumps(base))
    change(changed)
    assert changed != base
    first = _experiment_without_cfg(base)
    assert _experiment_without_cfg(json.loads(json.dumps(base))) == first
    assert _experiment_without_cfg(changed) != first


def test_p_is_a_check_on_the_free_block(tmp_path, capsys):
    """p changes no number: a control inside the free block 1..p is refused,
    and any p that admits the controls gives the same CSVs."""
    cfg = demo_configs()[WAVE]
    cfg.update(p=2)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert main(["control", "--config", str(path), "--out", str(tmp_path / "p2")]) == 1
    assert "lies in the free block 1..2" in capsys.readouterr().err
    cfg["domain"]["n"], cfg["hum"]["K_filter"], cfg["time"]["T"] = [60], 10, 3.0
    csvs = []
    for p in (1, 0):
        cfg.update(p=p)
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"p{p}"
        assert main(["control", "--config", str(path), "--out", str(out)]) == 0
        csvs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))
                     if name.endswith(".csv")})
    assert len(csvs[0]) == 3 and csvs[0] == csvs[1]


def test_zero_coupling_control_fails(demo_dir, tmp_path):
    code = main(["control", "--config", str(demo_dir / "zero_coupling.json"),
                 "--out", str(tmp_path / "zc")])
    assert code == 2


def test_control_report_says_why_synthesis_failed(demo_dir, tmp_path):
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
        cl.build_experiment(cfg)


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
    # a control amplitude is checked like a coupling amplitude
    ("control", "amplitude", -1.0, "control amplitudes must be nonnegative"),
    ("control", "amplitude", "x", "control.amplitude must be a number"),
    ("control", "amplitude", math.nan, "control.amplitude must be a finite number"),
    ("control", "amplitude", True, "control.amplitude must be a number"),
    ("control", "amplitude", [1.0, 2.0], "control.amplitude needs one value per box"),
    ("coupling", "amplitude", [], "coupling.amplitude needs one value per box"),
])
def test_string_bool_and_non_finite_config_values_exit_1(tmp_path, capsys, section, key, value,
                                                         message):
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    target = cfg[section][0] if isinstance(cfg[section], list) else cfg[section]
    target[key] = value
    cfg["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "control"])
@pytest.mark.parametrize("change", [{"amplitude": 0.0}, {"boxes": [[[0.7016, 0.702]]]}])
def test_empty_control_support_exits_1(tmp_path, capsys, command, change):
    """A distributed control with no grid node of positive amplitude (no node
    inside the box at n = 200) controls nothing: a config error."""
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    cfg["control"][0].update(change)
    cfg["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 1
    assert "control component 2: the region has no grid node" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("where,value", [("seed", True), ("seed", -1), ("random", -1)])
def test_config_rejects_bool_and_negative_seeds(where, value):
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    if where == "seed":
        cfg["seed"] = value
    else:
        cfg["initial"][0] = {"component": 1, "random": {"seed": value}}
    with pytest.raises(cl.ConfigError, match="seed must be a"):
        cl.build_experiment(cfg)


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


def _entry(section, key, value):
    def change(cfg):
        cfg.setdefault(section, {})[key] = value
    return change


def _all(*changes):
    def change(cfg):
        for one in changes:
            one(cfg)
    return change


def _twice(section):
    def change(cfg):
        cfg[section].append(dict(cfg[section][0], amplitude=2.0))
    return change


def _heat(*changes):
    """The heat demo in place of the wave demo, then ``changes``."""
    def change(cfg):
        cfg.clear()
        cfg.update(demo_configs()[HEAT])
        for one in changes:
            one(cfg)
    return change


EPS_LIST_MESSAGE = "hum.eps_list entries must be > 0: the sweep fits log eps"
_DENSE_WAVE = _all(_set(["domain", "n"], [120]), _set(["hum", "K_filter"], 120),
                   _entry("analysis", "K", 120))


@pytest.mark.parametrize("command,change,message", [
    ("gcc", _entry("gcc", "n_rays", 0), "gcc.n_rays must be >= 1"),
    ("gcc", _entry("gcc", "T", -1), "gcc.T must be > 0"),
    ("gcc", _entry("gcc", "T", 0), "gcc.T must be > 0"),
    ("check", _entry("analysis", "n_samples", 0), "analysis.n_samples must be >= 1"),
    ("check", _entry("analysis", "levels", [1]), "analysis.levels must be >= 2"),
    ("check", _entry("analysis", "levels", []), "analysis.levels must be a nonempty list"),
    ("observability", _entry("analysis", "K", 0), "analysis.K must be >= 1"),
    ("observability", _entry("analysis", "K", 100), "analysis.K 100 exceeds K_filter 30"),
    ("kalman", _entry("analysis", "K", 0), "analysis.K must be >= 1"),
    ("kalman", _entry("analysis", "K", 100), "analysis.K 100 exceeds K_filter 30"),
    ("observability", _entry("analysis", "t_grid", [-1.0]), "analysis.t_grid must be > 0"),
    ("observability", _entry("analysis", "t_grid", [0.7]), "analysis.t_grid: dt="),
    ("observability", _entry("analysis", "t_grid", []), "analysis.t_grid must be a nonempty list"),
    ("gcc", _twice("coupling"), "coupling pair (1,2) given twice"),
    ("gcc", _twice("control"), "controlled component 2 given twice"),
    ("gcc", _set(["control", 0, "boxes"], [[[1.5, 2.0]]]),
     "control component 2: region part (1.5,)..(2.0,) has no measure inside the domain"),
    ("gcc", _set(["output_dir"], 5), "output_dir must be a string or null"),
    # an entry error comes before the build-time error of K_filter above the grid
    ("gcc", _all(_set(["hum", "K_filter"], 1000), _entry("gcc", "n_rays", 0)),
     "gcc.n_rays must be >= 1"),
    ("control", _heat(_entry("hum", "eps", 0)), "hum.eps must be > 0 for the first-order family"),
    ("sweep-eps", _heat(_entry("hum", "eps_list", [1e-2, 1e-3, 0])), EPS_LIST_MESSAGE),
    ("sweep-eps", _heat(_entry("hum", "eps_list", [1e-2, 1e-3, -1e-3])), EPS_LIST_MESSAGE),
    ("sweep-eps", _entry("hum", "eps_list", [1e-2, 1e-3, 0]), EPS_LIST_MESSAGE),
    ("sweep-eps", _entry("hum", "eps_list", [1e-2, 1e-3, -1]), EPS_LIST_MESSAGE),
    ("observability", _DENSE_WAVE, "analysis.K 120: seed dimension 480 exceeds the dense limit 400"),
    ("observability", _heat(_set(["domain", "n"], [101]), _set(["family", "theta"], 0.7),
                            _set(["hum", "K_filter"], 101), _entry("analysis", "K", 101)),
     "analysis.K 101: seed dimension 404 exceeds the dense limit 400"),
])
def test_out_of_range_config_value_exits_1(tmp_path, capsys, command, change, message):
    """Values of the right type that no subcommand can run with are config
    errors naming the entry, raised before any output is written."""
    cfg = demo_configs()[WAVE]
    cfg["domain"]["n"] = [40]
    change(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_kalman_runs_past_the_dense_limit(tmp_path):
    """kalman reads analysis.K too, but it assembles no Gramian: it runs on a
    config whose seed dimension observability refuses."""
    cfg = demo_configs()[WAVE]
    _DENSE_WAVE(cfg)
    cfg["coupling"][0]["boxes"] = cfg["control"][0]["boxes"] = [[[0.0, 1.0]]]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(cfg))
    assert main(["kalman", "--config", str(path), "--out", str(tmp_path / "kal")]) == 0
    assert main(["observability", "--config", str(path), "--out", str(tmp_path / "obs")]) == 1


def _mixed_controls(cfg):
    """Three components with a distributed control on 2 and a right-end
    control on 3, and an eps list for sweep-eps."""
    cfg["N"] = 3
    cfg["coupling"].append({"pair": [2, 3], "boxes": [[[0.2, 0.4]]]})
    cfg["control"].append({"component": 3, "kind": "boundary", "end": "right"})
    cfg["time"]["T"] = 3.0
    cfg["hum"].update(K_filter=6, eps_list=[1e-2, 1e-3, 1e-4])


@pytest.mark.parametrize("command,change", [
    pytest.param("control", _mixed_controls, id="mixed-controls-control"),
    pytest.param("observability", _mixed_controls, id="mixed-controls-observability"),
    pytest.param("sweep-eps", _mixed_controls, id="mixed-controls-sweep-eps"),
    pytest.param("check", _all(_set(["domain", "n"], [5]), _set(["hum", "K_filter"], 5)),
                 id="check-at-n-5"),
])
def test_formerly_crashing_config_runs(tmp_path, capsys, command, change):
    """Accepted configs that once ended in a raw traceback run to a verdict:
    a synthesis or Gramian with mixed distributed/end controls, and check's
    admissibility ratios on a level with fewer unknowns than forcing modes."""
    cfg = demo_configs()[WAVE]
    cfg["domain"]["n"] = [40]
    change(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) in (0, 2)
    if command == "control":
        assert main(["replay", str(out)]) == 0
        assert "mismatch 0.000e+00" in capsys.readouterr().out
    assert capsys.readouterr().err == ""


def test_integral_float_config_value_is_accepted():
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    cfg["hum"]["K_filter"] = 30.0
    cfg["analysis"] = {"K": 3.0, "levels": [200.0]}
    cl.build_experiment(cfg)


def test_check_certifies_every_control(tmp_path):
    """Mixed distributed/end controls: one admissibility entry per control,
    each observed on its own with the same seed and levels, so each entry
    equals the one of a check on that control alone."""
    cfg = demo_configs()[WAVE]
    cfg["domain"]["n"] = [40]
    _mixed_controls(cfg)
    hypotheses = {}
    for name, controls in (("both", cfg["control"]), ("distributed", cfg["control"][:1]),
                           ("end", cfg["control"][1:])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, control=controls)))
        assert main(["check", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        hypotheses[name] = json.loads((tmp_path / name / "report.json").read_text())["hypotheses"]
    both = hypotheses["both"]["admissibility"]
    assert [(a["component"], a["observation"], a["levels"]) for a in both] == [
        (2, "distributed", [40, 80]), (3, "end", [40, 80])]
    assert "admissibility_ratios" not in hypotheses["both"]
    assert hypotheses["end"]["admissibility"] == both[1:]
    # a config without an end control checks one level by default
    (alone,) = hypotheses["distributed"]["admissibility"]
    assert alone["levels"] == [40] and alone["max_ratios"] == both[0]["max_ratios"][:1]


def test_check_subcommand(demo_dir, tmp_path):
    """The coupling constants are the closed-form amplitudes, so a large
    amplitude cannot fail the check through round-off; the verdict is the
    admissibility verdict alone."""
    for amplitude in (1.0, 1e4):
        coupling = [dict(demo_configs()[WAVE]["coupling"][0], amplitude=amplitude)]
        (tmp_path / str(amplitude)).mkdir()
        path, cfg = _small_wave(demo_dir, tmp_path / str(amplitude), coupling=coupling)
        assert main(["check", "--config", str(path)]) == 0
        with open(os.path.join(cfg["output_dir"], "report.json")) as fh:
            hyp = json.load(fh)["hypotheses"]
        assert "flags" not in hyp
        assert hyp["coupling"] == [{"bound": amplitude, "coercivity": amplitude,
                                    "support": "O_12"}]
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
    assert main(["kalman", "--config", str(path)]) == 2


def _small_observability(demo_dir, tmp_path, analysis):
    path = tmp_path / "obs.json"
    with open(demo_dir / "demo_wave_cascade.json") as fh:
        base = json.load(fh)
    base["domain"]["n"] = [50]
    base["hum"]["K_filter"] = 6
    base["time"]["T"] = 2.0
    base["time"]["dt"] = 0.0125
    base["analysis"] = analysis
    base["output_dir"] = str(tmp_path / "obs")
    with open(path, "w") as fh:
        json.dump(base, fh)
    return path


def test_observability_subcommand(demo_dir, tmp_path):
    path = _small_observability(demo_dir, tmp_path, {"t_grid": [1.0, 2.0], "K": 3})
    assert main(["observability", "--config", str(path)]) == 0
    with open(tmp_path / "obs" / "report.json") as fh:
        report = json.load(fh)
    ests = [entry["c1_est"] for entry in report["observability"]]
    assert ests[1] >= ests[0] - 1e-12


def _spectrum_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "T,functional,index,eigenvalue"
    return [line.split(",") for line in lines[1:]]


def test_observability_gramian_block_is_the_control_report_block(demo_dir, tmp_path):
    """At the control's own T and K, observability summarizes the Gramian
    that `control` synthesizes with, and writes every eigenvalue of both
    functionals to gramian_spectra.csv, not spectra.csv."""
    path = _small_observability(demo_dir, tmp_path, {"t_grid": [2.0], "K": 6})
    assert main(["observability", "--config", str(path)]) == 0
    # the verdict does not matter here: at K = K_filter 6 the Gramian is
    # near-singular (c1_est 3.8e-10) and refinement misses cg_tol
    assert main(["control", "--config", str(path), "--out", str(tmp_path / "ctl")]) in (0, 2)
    report = json.loads((tmp_path / "obs" / "report.json").read_text())
    control = json.loads((tmp_path / "ctl" / "report.json").read_text())
    (entry,) = report["observability"]
    assert entry["gramian"] == control["hum"]["gramian"]
    assert entry["gramian"]["dim"] == 24
    assert entry["c1_est"] == entry["gramian"]["lambda_min"]
    assert entry["c2_est"] == entry["coupling_gramian"]["lambda_min"]
    assert report["artifacts"] == {"gramian_spectra": "gramian_spectra.csv"}
    assert not (tmp_path / "obs" / "spectra.csv").exists()
    rows = [(T, functional, int(i), float(lam)) for T, functional, i, lam
            in _spectrum_rows(tmp_path / "obs" / "gramian_spectra.csv")]
    assert rows == [("2", functional, i, lam)
                    for functional, key in (("control", "eigenvalues"),
                                            ("coupling", "coupling_eigenvalues"))
                    for i, lam in enumerate(entry[key], 1)]


def test_observability_without_control_reports_null_c1(demo_dir, tmp_path, capsys):
    out = tmp_path / "strip"
    assert main(["observability", "--config", str(demo_dir / "strip_square.json"),
                 "--out", str(out)]) == 0
    assert "c1_est null" in capsys.readouterr().out
    with open(out / "report.json") as fh:
        report = json.load(fh)
    (entry,) = report["observability"]
    assert entry["c1_est"] is None and entry["eigenvalues"] == []
    assert "gramian" not in entry
    assert entry["c2_est"] is not None
    assert any("carries no control" in note for note in report["notes"])
    rows = _spectrum_rows(out / "gramian_spectra.csv")
    assert [row[:3] for row in rows] == [["10", "coupling", str(i)] for i in range(1, 11)]
    assert [float(row[3]) for row in rows] == entry["coupling_eigenvalues"]


def test_observability_notes_a_numerically_zero_constant(demo_dir, tmp_path, capsys):
    """Without the coupling, the uncontrolled component is unobserved: half of
    the control Gramian's spectrum is zero, and the report says so."""
    out = tmp_path / "zero"
    assert main(["observability", "--config", str(demo_dir / "zero_coupling.json"),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("observability: c1_est 0 at T=4 ")
    report = json.loads((out / "report.json").read_text())
    (entry,) = report["observability"]
    gram = entry["gramian"]
    assert entry["c1_est"] == gram["lambda_min"] <= gram["rank_threshold"]
    assert (gram["rank"], gram["dim"]) == (10, 20)
    assert (f"c1_est at T=4 is numerically zero: lambda_min {gram['lambda_min']:.3g} <= "
            f"rank_threshold {gram['rank_threshold']:.3g} (rank 10 of 20)") in report["notes"]
    assert not any("c2_est" in note for note in report["notes"])


@pytest.mark.parametrize("command", ["check", "control"])
def test_subcommands_needing_a_control_exit_1_without_one(demo_dir, tmp_path, capsys, command):
    code = main([command, "--config", str(demo_dir / "strip_square.json"),
                 "--out", str(tmp_path / "strip")])
    assert code == 1
    assert "carries no control" in capsys.readouterr().err


def test_analyses_refuse_a_system_without_control():
    exp = cl.build_experiment(demo_configs()["strip_square.json"])
    with pytest.raises(cl.NotApplicableError, match="no control"):
        cl.admissibility_ratio(exp.sys, 1, 1.0, exp.dt, [10])
    # several controls are refused too, not read through the first one
    mixed = demo_configs()[WAVE]
    mixed["domain"]["n"] = [40]
    _mixed_controls(mixed)
    mixed = cl.build_experiment(mixed)
    with pytest.raises(cl.NotApplicableError, match="2 controls"):
        cl.admissibility_ratio(mixed.sys, 1, 1.0, mixed.dt, [40])
    with pytest.raises(cl.NotApplicableError, match="no control"):
        cl.synthesize_control(exp.sys, exp.Y0, 1.0, exp.dt, 2)
    op = cl.EllipticOperator(cl.build_grid([1.0], [20]))
    with pytest.raises(cl.NotApplicableError, match="no control"):
        cl.kalman_mode_test(cl.CascadeSystem(cl.Hyperbolic(), op, cl.spectral_basis(op, 4), 2), 4)


SUBCOMMANDS = ["gcc", "check", "control", "observability", "kalman", "sweep-eps"]


ZERO_COUPLING_NOTE = "coupling (1,2): no grid node has positive amplitude, so the coupling is zero"


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("name", sorted(demo_configs()))
def test_every_subcommand_on_every_demo_exits_cleanly(tmp_path, capsys, name, command):
    """Exit 0, 1 or 2 with no exception escaping, on the demos as shipped.
    Stderr holds the one error line of an exit 1 and nothing otherwise: the
    empty coupling support of the zero-coupling demo is a report note."""
    config = tmp_path / name
    config.write_text(json.dumps(demo_configs()[name]))
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out)])
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        report = json.loads((out / "report.json").read_text())
        assert (ZERO_COUPLING_NOTE in report["notes"]) == (name == "zero_coupling.json")
        # the artifacts map lists every file the run wrote besides the report
        written = sorted(set(os.listdir(out)) - {"report.json"})
        assert report["artifacts"] == {os.path.splitext(f)[0]: f for f in written}
        assert written or command == "gcc"
    if command == "control":
        assert main(["replay", str(out)]) in (0, 1, 2)


def test_config_that_is_a_directory_exits_1(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err
    assert not (tmp_path / "run").exists()


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    """A UTF-16 byte-order mark (0xff 0xfe) does not decode as UTF-8."""
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(demo_configs()[WAVE]).encode())
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text (invalid start byte)\n"
    assert not (tmp_path / "run").exists()


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


def _small_heat(demo_dir, tmp_path, **family):
    with open(demo_dir / "demo_heat_cascade.json") as fh:
        cfg = json.load(fh)
    cfg["domain"]["n"] = [50]
    cfg["family"].update(family)
    cfg["hum"] = {"K_filter": 8, "eps": 1e-4, "cg_tol": 1e-9}
    cfg["time"] = {"T": 0.3, "dt": 0.003}
    cfg["output_dir"] = str(tmp_path / "heat_run")
    path = tmp_path / "heat.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path, cfg


def test_dissipative_control_and_replay(demo_dir, tmp_path):
    path, cfg = _small_heat(demo_dir, tmp_path)
    assert main(["control", "--config", str(path)]) == 0
    assert main(["replay", cfg["output_dir"]]) == 0


def test_theta_at_right_angle_is_noted_once(demo_dir, tmp_path):
    path, cfg = _small_heat(demo_dir, tmp_path, theta=math.pi / 2)
    assert main(["control", "--config", str(path)]) in (0, 2)
    with open(os.path.join(cfg["output_dir"], "report.json")) as fh:
        text = fh.read()
    assert text.count("theta at +-pi/2") == 1
    assert "theta at +-pi/2" in " ".join(json.loads(text)["notes"])


def test_control_snapshots_write_trajectory(demo_dir, tmp_path):
    for make in (_small_wave, _small_heat):
        path, cfg = make(demo_dir, tmp_path)
        assert main(["control", "--config", str(path), "--snapshots", "4"]) == 0
        with open(os.path.join(cfg["output_dir"], "report.json")) as fh:
            resolved = json.load(fh)["resolved"]
        with open(os.path.join(cfg["output_dir"], "trajectory.csv")) as fh:
            assert fh.readline().strip() == "t,component,index,value_re,value_im"
            times = [float(line.split(",")[0]) for line in fh]
        M, dt = resolved["steps"], resolved["dt"]
        nodes = sorted({round(k * M / 4) for k in range(5)})
        fields = 2 * cfg["domain"]["n"][0]  # N components of n nodes per snapshot
        assert len(times) == len(nodes) * fields
        assert sorted(set(times)) == [n * dt for n in nodes]


@pytest.mark.parametrize("count", ["-1", "x"])
def test_control_refuses_a_bad_snapshot_count(demo_dir, tmp_path, capsys, monkeypatch, count):
    """A negative or non-integer --snapshots is a usage error, refused before
    the experiment is built or any march runs."""
    path, cfg = _small_wave(demo_dir, tmp_path)
    monkeypatch.setattr(cl.cli, "synthesize_control", None)
    assert main(["control", "--config", str(path), "--snapshots", count]) == 1
    assert "--snapshots" in capsys.readouterr().err
    assert not os.path.exists(cfg["output_dir"])


@pytest.mark.parametrize("make", [_small_wave, lambda *dirs: _small_heat(*dirs, theta=0.7)],
                         ids=["wave", "complex heat"])
def test_trajectory_starts_at_the_stored_initial_state(demo_dir, tmp_path, make):
    """The t=0 rows of trajectory.csv are the filtered initial state that
    initial_state.csv stores and replay starts from, digit for digit."""
    path, cfg = make(demo_dir, tmp_path)
    assert main(["control", "--config", str(path), "--snapshots", "2"]) == 0
    out = cfg["output_dir"]
    with open(os.path.join(out, "trajectory.csv")) as fh:
        start = [line.split(",", 1)[1] for line in fh.read().splitlines()[1:]
                 if line.startswith("0,")]
    with open(os.path.join(out, "initial_state.csv")) as fh:
        w = [line.replace(",w,", ",", 1) for line in fh.read().splitlines()[1:]
             if line.split(",")[1] == "w"]
    assert len(start) == 2 * cfg["domain"]["n"][0]
    assert start == w


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
