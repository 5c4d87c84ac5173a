"""The CSV artifacts: the control.csv row layout, its bounded-memory reader,
and replay's rejection of malformed artifacts."""

import json
import shutil
import tracemalloc

import numpy as np
import pytest

import cascade_lab as cl
from cascade_lab.cli import (
    _read_control_csv,
    _read_state_csv,
    demo_configs,
    main,
    write_control_csv,
    write_state_csv,
)
from cascade_lab.config import build_experiment
from cascade_lab.dynamics import ControlSignal, step_count, trapezoid_weights


def _cfg(name, **changes):
    cfg = json.loads(json.dumps(demo_configs()[name]))
    cfg.pop("output_dir")
    cfg.update(changes)
    return cfg


def _small(kind):
    if kind == "real distributed":
        return _cfg("demo_wave_cascade.json", domain={"extents": [1.0], "n": [12]},
                    hum={"K_filter": 4}, time={"T": 0.5, "dt": None})
    if kind == "complex":
        cfg = _cfg("demo_heat_cascade.json", domain={"extents": [1.0], "n": [12]},
                   hum={"K_filter": 4}, time={"T": 0.05, "dt": 0.005})
        cfg["family"]["theta"] = 0.6
        return cfg
    if kind == "boundary":
        return _cfg("demo_wave_cascade.json", domain={"extents": [1.0], "n": [12]},
                    hum={"K_filter": 4}, time={"T": 0.5, "dt": None},
                    control=[{"component": 2, "kind": "boundary", "end": "right"}])
    # two controlled components, one distributed and one boundary
    return _cfg("demo_wave_cascade.json", domain={"extents": [1.0], "n": [12]},
                hum={"K_filter": 4}, time={"T": 0.5, "dt": None}, N=3,
                control=[{"component": 3, "kind": "boundary", "end": "left"},
                         {"component": 2, "kind": "distributed", "boxes": [[[0.7, 0.9]]]}])


def _random_signal(exp, seed=0):
    """A control signal of the experiment's shapes and dtype, with signed zeros."""
    rng = np.random.default_rng(seed)
    M = step_count(exp.T, exp.dt)
    values = {}
    for k, kind, _ in exp.sys._control_ops:
        shape = (M + 1, exp.grid.n_total) if kind == "distributed" else (M + 1,)
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        if exp.sys.state_dtype == np.complex128:
            v = v + 1j * rng.standard_normal(shape)
        v.flat[::7] = -0.0
        values[k] = v.astype(exp.sys.state_dtype)
    return ControlSignal(exp.dt * np.arange(M + 1), values, trapezoid_weights(M, exp.dt))


@pytest.mark.parametrize("kind", ["real distributed", "complex", "boundary", "mixed"])
def test_control_csv_layout_and_bitwise_roundtrip(tmp_path, kind):
    exp = build_experiment(_small(kind))
    assert (exp.sys.state_dtype == np.complex128) == (kind == "complex")
    signal = _random_signal(exp)
    path = write_control_csv(tmp_path, signal)

    expected = ["t,component,index,value_re,value_im"]
    for k in sorted(signal.values):
        arr = signal.values[k]
        for n, t in enumerate(signal.t):
            row = arr[n] if arr.ndim == 2 else arr[n:n + 1]
            for i, v in enumerate(row):
                re, im = float(np.real(v)), float(np.imag(v))
                expected.append(f"{float(t):.17g},{k},{i},{re:.17g},{im:.17g}")
    with open(path, "rb") as fh:
        assert fh.read().decode("ascii") == "\n".join(expected) + "\n"

    back = _read_control_csv(path, exp, "node")
    assert sorted(back.values) == sorted(signal.values)
    for k, arr in signal.values.items():
        got = back.values[k]
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()


def test_control_csv_reader_memory_is_bounded(tmp_path):
    exp = build_experiment(_cfg("demo_wave_cascade.json"))
    M = step_count(exp.T, exp.dt)
    assert (M + 1, exp.grid.n_total) == (1341, 200)
    rng = np.random.default_rng(1)
    signal = ControlSignal(exp.dt * np.arange(M + 1), {2: rng.standard_normal((M + 1, 200))},
                           trapezoid_weights(M, exp.dt))
    path = write_control_csv(tmp_path, signal)
    tracemalloc.start()
    try:
        back = _read_control_csv(path, exp, "node")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values[2], signal.values[2])
    # the result alone is 2.1 MB; the 8.7 MB file is never held whole
    assert peak < 4 * 2**20


def _edit_field(line, col, value):
    def edit(lines):
        parts = lines[line - 1].split(",")
        parts[col] = value
        lines[line - 1] = ",".join(parts)
    return edit


def _insert(line, make):
    return lambda lines: lines.insert(line - 1, make(lines))


@pytest.mark.parametrize("kind,component", [("boundary", 2), ("mixed", 3)])
def test_boundary_control_row_needs_index_0(tmp_path, kind, component):
    exp = build_experiment(_small(kind))
    path = write_control_csv(tmp_path, _random_signal(exp))
    lines = (tmp_path / "control.csv").read_text().splitlines()
    bad = next(n for n, line in enumerate(lines, start=1) if line.split(",")[1] == str(component))
    _edit_field(bad, 2, "1")(lines)
    (tmp_path / "control.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(cl.ConfigError, match=f"line {bad}: index 1 outside 0..0"):
        _read_control_csv(path, exp, "node")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small wave run and one small heat run, produced by `control`."""
    root = tmp_path_factory.mktemp("runs")
    wave = _cfg("demo_wave_cascade.json", domain={"extents": [1.0], "n": [60]},
                hum={"K_filter": 10}, time={"T": 3.0, "dt": None})
    heat = _cfg("demo_heat_cascade.json", domain={"extents": [1.0], "n": [50]},
                hum={"K_filter": 8, "eps": 1e-4, "cg_tol": 1e-9}, time={"T": 0.3, "dt": 0.003})
    for name, cfg in (("wave", wave), ("heat", heat)):
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["control", "--config", str(path), "--out", str(root / name)]) == 0
    return root


@pytest.mark.parametrize("run,name,edit,message", [
    ("wave", "control.csv", _edit_field(2, 1, "1"), "line 2: component 1 is not controlled"),
    ("wave", "control.csv", _edit_field(2, 2, "999"), "line 2: index 999 outside 0..59"),
    ("wave", "control.csv", _edit_field(9000, 2, "999"), "line 9000: index 999 outside 0..59"),
    ("wave", "control.csv", _edit_field(2, 0, "99"), "line 2: t=99 is not a time node"),
    ("wave", "control.csv", _edit_field(2, 2, "x"), "line 2: expected five comma-separated"),
    ("wave", "control.csv", _edit_field(2, 2, "-1"), "line 2: index -1 outside 0..59"),
    ("wave", "control.csv", _edit_field(2, 2, "1.5"), "line 2: index 1.5 outside 0..59"),
    ("wave", "control.csv", _edit_field(5000, 3, "nan"), "line 5000: value is not finite"),
    ("wave", "control.csv", _insert(3, lambda lines: lines[1]), "line 3: repeats an earlier"),
    ("wave", "control.csv", _insert(6000, lambda lines: lines[1]), "line 6000: repeats an earlier"),
    ("wave", "control.csv", lambda lines: lines.pop(4), "no row for component 2, t=0, index 3"),
    ("wave", "control.csv", _insert(4, lambda lines: ""), "line 4: expected five comma-separated"),
    ("wave", "control.csv", _edit_field(1, 0, "time"), "line 1: header"),
    ("wave", "initial_state.csv", _edit_field(2, 0, "3"), "line 2: component 3 outside 1..2"),
    ("wave", "initial_state.csv", _edit_field(2, 1, "v"), "line 2: kind 'v' is not one of w, wp"),
    ("wave", "initial_state.csv", _edit_field(2, 2, "999"), "line 2: index 999 outside 0..59"),
    ("wave", "initial_state.csv", _edit_field(2, 2, "x"), "line 2: expected component,kind"),
    ("wave", "initial_state.csv", _insert(3, lambda lines: lines[1]), "line 3: repeats an earlier"),
    ("wave", "initial_state.csv", lambda lines: lines.pop(), "no row for component 2, kind wp"),
    ("heat", "initial_state.csv", _insert(2, lambda lines: "1,wp,0,0,0"),
     "line 2: kind 'wp' is not one of w"),
    ("wave", "report.json", lambda lines: lines.insert(0, "{"), "malformed"),
    ("wave", "report.json", lambda lines: lines.remove(next(x for x in lines if "energy_full" in x)),
     "needs config and hum.terminal_energy_full"),
])
def test_replay_rejects_malformed_artifact(runs, tmp_path, capsys, run, name, edit, message):
    out = tmp_path / run
    shutil.copytree(runs / run, out)
    path = out / name
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err and message in err


@pytest.mark.parametrize("kind", ["real distributed", "complex"])
def test_state_csv_bitwise_roundtrip(tmp_path, kind):
    exp = build_experiment(_small(kind))
    exp.Y0.w.flat[::5] = -0.0
    path = write_state_csv(tmp_path, exp.Y0)
    state = _read_state_csv(path, exp)
    assert state.w.tobytes() == exp.Y0.w.tobytes()
    assert (state.wp is None) == (exp.Y0.wp is None)
    if state.wp is not None:
        assert state.wp.tobytes() == exp.Y0.wp.tobytes()
