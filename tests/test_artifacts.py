"""The CSV artifacts: the control.csv row layout (support columns only), its
bounded-memory reader, replay of `control` and `sweep-eps` directories and its
rejection of malformed or unreadable artifacts, and CSV bytes that do not
depend on the BLAS thread count."""

import json
import math
import os
import shutil
import subprocess
import sys
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
    write_trajectory_csv,
)
from cascade_lab.config import build_experiment
from cascade_lab.dynamics import ControlSignal, step_count
from cascade_lab.hum import SeedSpace


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
    if kind == "2d L":
        return _square_cfg()
    # two controlled components, one distributed and one boundary
    return _cfg("demo_wave_cascade.json", domain={"extents": [1.0], "n": [12]},
                hum={"K_filter": 4}, time={"T": 0.5, "dt": None}, N=3,
                control=[{"component": 3, "kind": "boundary", "end": "left"},
                         {"component": 2, "kind": "distributed", "boxes": [[[0.7, 0.9]]]}])


def _square_cfg():
    """A small 2D square whose coupling and control regions are L-shaped
    unions of two strips, so both supports are flat index arrays."""
    return {
        "domain": {"extents": [1.0, 1.0], "n": [10, 10]},
        "family": {"kind": "hyperbolic"},
        "N": 2, "p": 1,
        "coupling": [{"pair": [1, 2],
                      "boxes": [[[0.0, 1.0], [0.0, 0.25]], [[0.0, 0.25], [0.0, 1.0]]]}],
        "control": [{"component": 2, "kind": "distributed",
                     "boxes": [[[0.75, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.75, 1.0]]]}],
        "time": {"T": 3.0, "dt": None},
        "hum": {"K_filter": 4},
        "initial": [{"component": 1, "position_modes": [[1, 1.0]], "velocity_modes": []}],
    }


def _csv_indices(exp, k):
    """Grid indices of component k's rows, from the region's indicator."""
    kind = dict(exp.sys.control)[k]
    if isinstance(kind, cl.Region):
        return np.flatnonzero(cl.indicator_vector(kind, exp.grid))
    return [0]


def _random_signal(exp, seed=0):
    """A control signal of the experiment's shapes and dtype, with signed zeros."""
    rng = np.random.default_rng(seed)
    M = step_count(exp.T, exp.dt)
    values = {}
    for k in exp.sys.controls:
        shape = (M + 1,) + exp.sys.signal_shape(k)
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        if exp.sys.state_dtype == np.complex128:
            v = v + 1j * rng.standard_normal(shape)
        v.flat[::7] = -0.0
        values[k] = v.astype(exp.sys.state_dtype)
    return ControlSignal(exp.dt * np.arange(M + 1), values)


@pytest.mark.parametrize("kind", ["real distributed", "complex", "boundary", "mixed", "2d L"])
def test_control_csv_layout_and_bitwise_roundtrip(tmp_path, kind):
    exp = build_experiment(_small(kind))
    assert (exp.sys.state_dtype == np.complex128) == (kind == "complex")
    if kind == "2d L":  # the flat index-array path
        assert not isinstance(exp.sys.controls[2].cols, slice)
    signal = _random_signal(exp)
    path = write_control_csv(tmp_path, signal, exp.sys)

    expected = ["t,component,index,value_re,value_im"]
    for k in sorted(signal.values):
        arr = signal.values[k]
        indices = _csv_indices(exp, k)
        for n, t in enumerate(signal.t):
            row = arr[n] if arr.ndim == 2 else arr[n:n + 1]
            for i, v in zip(indices, row, strict=True):
                re, im = float(np.real(v)), float(np.imag(v))
                expected.append(f"{float(t):.17g},{k},{i},{re:.17g},{im:.17g}")
    with open(path, "rb") as fh:
        assert fh.read().decode("ascii") == "\n".join(expected) + "\n"

    back = _read_control_csv(path, exp)
    assert sorted(back.values) == sorted(signal.values)
    for k, arr in signal.values.items():
        got = back.values[k]
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()


# the 17-significant-digit rule at its edges: signed zeros, the smallest
# subnormal and normal, decimals with no exact binary form, an integer past
# 2^53 and the largest finite float
EDGE_VALUES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1e16, -1.5e-7,
               1.7976931348623157e308)


def _edge_values(shape, dtype):
    """An array of ``shape`` that cycles through EDGE_VALUES; a complex one
    takes them in reverse order as its imaginary parts."""
    n = math.prod(shape)
    real = np.resize(np.array(EDGE_VALUES), n)
    if dtype != np.complex128:
        return real.reshape(shape)
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = real, np.resize(np.array(EDGE_VALUES[::-1]), n)
    return out.reshape(shape)


def _g17(v):
    """value_re,value_im of one entry, each by the f"{v:.17g}" rule."""
    return f"{float(np.real(v)):.17g},{float(np.imag(v)):.17g}"


@pytest.mark.parametrize("kind", ["mixed", "complex mixed"])
def test_csv_writers_follow_the_17g_rule_on_edge_values(tmp_path, kind):
    """control.csv (distributed and end rows), initial_state.csv and
    trajectory.csv write every value by the f"{v:.17g}" rule, a real row's
    value_im as 0, with LF endings."""
    cfg = _small("mixed")
    if kind == "complex mixed":  # the same controls on the heat demo at theta = 0.6
        cfg = dict(_small("complex"), N=3, control=cfg["control"])
    exp = build_experiment(cfg)
    dtype = exp.sys.state_dtype
    assert (dtype == np.complex128) == (kind == "complex mixed")
    assert sorted(isinstance(c, cl.BoundaryEnd) for c in exp.sys.controls.values()) == [False, True]

    M = step_count(exp.T, exp.dt)
    signal = ControlSignal(exp.dt * np.arange(M + 1),
                           {k: _edge_values((M + 1,) + exp.sys.signal_shape(k), dtype)
                            for k in exp.sys.controls})
    expected = ["t,component,index,value_re,value_im"]
    for k in sorted(signal.values):
        for t, row in zip(signal.t, signal.values[k].reshape(M + 1, -1)):
            expected += [f"{float(t):.17g},{k},{i},{_g17(v)}"
                         for i, v in zip(_csv_indices(exp, k), row, strict=True)]
    with open(write_control_csv(tmp_path, signal, exp.sys), "rb") as fh:
        assert fh.read() == ("\n".join(expected) + "\n").encode("ascii")

    N, n = exp.sys.N, exp.grid.n_total
    w = _edge_values((N, n), dtype)
    wp = None if dtype == np.complex128 else _edge_values((N, n), dtype)[::-1].copy()
    state = cl.SystemState(0.0, w, wp)
    expected = ["component,kind,index,value_re,value_im"]
    for i in range(N):
        for name, fields in (("w", w), ("wp", wp)):
            if fields is not None:
                expected += [f"{i + 1},{name},{j},{_g17(v)}" for j, v in enumerate(fields[i])]
    with open(write_state_csv(tmp_path, state), "rb") as fh:
        assert fh.read() == ("\n".join(expected) + "\n").encode("ascii")

    snapshots = [(t, np.roll(w, shift)) for t, shift in ((0.0, 0), (1 / 3, 1), (2.5, 5))]
    expected = ["t,component,index,value_re,value_im"]
    for t, fields in snapshots:
        expected += [f"{t:.17g},{i + 1},{j},{_g17(v)}"
                     for i in range(N) for j, v in enumerate(fields[i])]
    with open(write_trajectory_csv(tmp_path, snapshots), "rb") as fh:
        assert fh.read() == ("\n".join(expected) + "\n").encode("ascii")


def test_control_csv_reader_memory_is_bounded(tmp_path):
    # a full-domain control box, so the support is the whole grid
    control = [{"component": 2, "kind": "distributed", "boxes": [[[0.0, 1.0]]]}]
    exp = build_experiment(_cfg("demo_wave_cascade.json", control=control))
    M = step_count(exp.T, exp.dt)
    assert (M + 1,) + exp.sys.signal_shape(2) == (1341, 200)
    rng = np.random.default_rng(1)
    signal = ControlSignal(exp.dt * np.arange(M + 1), {2: rng.standard_normal((M + 1, 200))})
    path = write_control_csv(tmp_path, signal, exp.sys)
    tracemalloc.start()
    try:
        back = _read_control_csv(path, exp)
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
    path = write_control_csv(tmp_path, _random_signal(exp), exp.sys)
    lines = (tmp_path / "control.csv").read_text().splitlines()
    bad = next(n for n, line in enumerate(lines, start=1) if line.split(",")[1] == str(component))
    _edit_field(bad, 2, "1")(lines)
    (tmp_path / "control.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(cl.ConfigError, match=f"line {bad}: expected a row starting "
                                             f"'0,{component},0,', got '0,{component},1,"):
        _read_control_csv(path, exp)


def _json_value(key, value):
    """Set the value of ``key`` on its line of an indented JSON file."""
    def edit(lines):
        j = next(j for j, line in enumerate(lines) if line.strip().startswith(f'"{key}":'))
        lines[j] = f"{lines[j].split(':')[0]}: {value},"
    return edit


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small wave run and one small heat run, produced by `control`. The
    wave run is long enough (817 nodes, 12 support columns) for its
    control.csv to span three blocks of the reader."""
    root = tmp_path_factory.mktemp("runs")
    wave = _cfg("demo_wave_cascade.json", domain={"extents": [1.0], "n": [60]},
                hum={"K_filter": 10}, time={"T": 12.0, "dt": None})
    heat = _cfg("demo_heat_cascade.json", domain={"extents": [1.0], "n": [50]},
                hum={"K_filter": 8, "eps": 1e-4, "cg_tol": 1e-9}, time={"T": 0.3, "dt": 0.003})
    for name, cfg in (("wave", wave), ("heat", heat)):
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["control", "--config", str(path), "--out", str(root / name)]) == 0
    return root


def _swap(line):
    def edit(lines):
        lines[line - 1], lines[line] = lines[line], lines[line - 1]
    return edit


# (run, file, edit, the fault it makes, the message replay must print); the
# fault names the test case
MALFORMED = [
    ("wave", "control.csv", _edit_field(2, 1, "1"), "line 2: component 1 is not controlled",
     "line 2: expected a row starting '0,2,42,', got '0,1,42,0,0'"),
    ("wave", "control.csv", _edit_field(2, 2, "999"), "line 2: index 999 outside 0..59",
     "line 2: expected a row starting '0,2,42,', got '0,2,999,0,0'"),
    ("wave", "control.csv", _edit_field(9000, 2, "999"), "line 9000: index 999 outside 0..59",
     "line 9000: expected a row starting '11.041769041769042,2,52,', "
     "got '11.041769041769042,2,999,"),
    ("wave", "control.csv", _edit_field(2, 0, "99"), "line 2: t=99 is not a time node",
     "line 2: expected a row starting '0,2,42,', got '99,2,42,0,0'"),
    ("wave", "control.csv", _edit_field(2, 2, "x"), "line 2: expected five comma-separated",
     "line 2: expected a row starting '0,2,42,', got '0,2,x,0,0'"),
    ("wave", "control.csv", _edit_field(2, 2, "-1"), "line 2: index -1 outside 0..59",
     "line 2: expected a row starting '0,2,42,', got '0,2,-1,0,0'"),
    ("wave", "control.csv", _edit_field(2, 2, "1.5"), "line 2: index 1.5 outside 0..59",
     "line 2: expected a row starting '0,2,42,', got '0,2,1.5,0,0'"),
    ("wave", "control.csv", _edit_field(5000, 3, "nan"), "line 5000: value is not finite",
     "line 5000: expected two finite numbers after '6.1326781326781328,2,48,', "
     "got '6.1326781326781328,2,48,nan,0'"),
    ("wave", "control.csv", _insert(3, lambda lines: lines[1]), "line 3: repeats an earlier",
     "line 3: expected a row starting '0,2,43,', got '0,2,42,0,0'"),
    ("wave", "control.csv", _insert(6000, lambda lines: lines[1]), "line 6000: repeats an earlier",
     "line 6000: expected a row starting '7.3562653562653564,2,52,', got '0,2,42,0,0'"),
    ("wave", "control.csv", _edit_field(2, 2, "0"),
     "line 2: index 0 is off the control support of component 2",
     "line 2: expected a row starting '0,2,42,', got '0,2,0,0,0'"),
    ("wave", "control.csv", _edit_field(5000, 2, "0"),
     "line 5000: index 0 is off the control support of component 2",
     "line 5000: expected a row starting '6.1326781326781328,2,48,', "
     "got '6.1326781326781328,2,0,"),
    ("wave", "control.csv", lambda lines: lines.pop(4), "no row for component 2, t=0, index 45",
     "line 5: expected a row starting '0,2,45,', got '0,2,46,0,0'"),
    ("wave", "control.csv", _insert(4, lambda lines: ""), "line 4: expected five comma-separated",
     "line 4: expected a row starting '0,2,44,', got ''"),
    ("wave", "control.csv", _edit_field(1, 0, "time"), "line 1: header", "line 1: header"),
    ("wave", "control.csv", _edit_field(5, 4, "5.0"),
     "line 5: value_im 5 is not 0 in a real family",
     "line 5: value_im 5 is not 0 in a real family"),
    ("wave", "control.csv", _swap(5000), "line 5000: swapped with line 5001",
     "line 5000: expected a row starting '6.1326781326781328,2,48,', "
     "got '6.1326781326781328,2,49,"),
    ("wave", "control.csv", lambda lines: lines.append(lines[1]), "line 9782: after the last row",
     "line 9782: expected end of file, got '0,2,42,0,0'"),
    ("wave", "initial_state.csv", _edit_field(2, 0, "3"), "line 2: component 3 outside 1..2",
     "line 2: expected a row starting '1,w,0,', got '3,w,0,"),
    ("wave", "initial_state.csv", _edit_field(2, 1, "v"),
     "line 2: kind 'v' is not one of w, wp",
     "line 2: expected a row starting '1,w,0,', got '1,v,0,"),
    ("wave", "initial_state.csv", _edit_field(2, 2, "999"), "line 2: index 999 outside 0..59",
     "line 2: expected a row starting '1,w,0,', got '1,w,999,"),
    ("wave", "initial_state.csv", _edit_field(2, 2, "x"), "line 2: expected component,kind",
     "line 2: expected a row starting '1,w,0,', got '1,w,x,"),
    ("wave", "initial_state.csv", _insert(3, lambda lines: lines[1]),
     "line 3: repeats an earlier",
     "line 3: expected a row starting '1,w,1,', got '1,w,0,"),
    ("wave", "initial_state.csv", lambda lines: lines.pop(), "no row for component 2, kind wp",
     "line 241: expected a row starting '2,wp,59,', got end of file"),
    ("wave", "initial_state.csv", _edit_field(3, 4, "7.0"),
     "line 3: value_im 7.0 is not 0 in a real family",
     "line 3: value_im 7 is not 0 in a real family"),
    ("heat", "initial_state.csv", _insert(2, lambda lines: "1,wp,0,0,0"),
     "line 2: kind 'wp' is not one of w",
     "line 2: expected a row starting '1,w,0,', got '1,wp,0,0,0'"),
    ("wave", "report.json", lambda lines: lines.insert(0, "{"), "malformed", "malformed"),
    ("wave", "report.json", lambda lines: [lines.clear(), lines.append("5")],
     "not a JSON object", "not a JSON object"),
    ("wave", "report.json", lambda lines: lines.remove(next(x for x in lines if "energy_full" in x)),
     "needs config and hum.terminal_energy_full", "needs config and hum.terminal_energy_full"),
    ("wave", "report.json", _json_value("terminal_energy_full", '"x"'),
     "needs config and hum.terminal_energy_full", "needs config and hum.terminal_energy_full"),
]


@pytest.mark.parametrize("run,name,edit,message", [(r, n, e, m) for r, n, e, _, m in MALFORMED],
                         ids=[f"{r}-{n}-{e.__name__}-{fault}" for r, n, e, fault, _ in MALFORMED])
def test_replay_rejects_malformed_artifact(runs, tmp_path, capsys, run, name, edit, message):
    out = tmp_path / run
    shutil.copytree(runs / run, out)
    path = out / name
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert _one_error_line_naming(err, path) and message in err


PER_COMPONENT = ["terminal_energy_full_per_component", "terminal_energy_filtered_per_component"]


@pytest.mark.parametrize("key", PER_COMPONENT)
@pytest.mark.parametrize("value,message", [
    (None, "as lists of numbers"), ("x", "as lists of numbers"), ([1.0, "x"], "as lists of numbers"),
    ([1.0], "holds 1 entries for 2 components")], ids=["missing", "string", "entry", "length"])
def test_replay_rejects_a_malformed_per_component_list(runs, tmp_path, capsys, key, value,
                                                       message):
    out = tmp_path / "wave"
    shutil.copytree(runs / "wave", out)
    report = json.loads((out / "report.json").read_text())
    if value is None:
        del report["hum"][key]
    else:
        report["hum"][key] = value
    (out / "report.json").write_text(json.dumps(report))
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert _one_error_line_naming(err, out / "report.json") and message in err


def _per_component(line, name):
    text = line.split(f"{name} [")[1].split("]")[0]
    return [float(v) for v in text.split(", ")]


def test_replay_prints_the_mismatch_of_each_component(runs, tmp_path, capsys):
    """Each component's full (relative) and filtered (on the initial energy's
    scale) mismatch is printed; a changed stored component shows in its own
    entry only, and the verdict stays on the totals."""
    out = tmp_path / "wave"
    shutil.copytree(runs / "wave", out)
    report = json.loads((out / "report.json").read_text())
    hum = report["hum"]
    hum["terminal_energy_full_per_component"][0] *= 2.0
    hum["terminal_energy_filtered_per_component"][1] += 1e-3 * hum["initial_energy"]
    (out / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.index("filtered") < line.index("per component") < line.index("max energy mismatch")
    assert _per_component(line, "full") == [0.5, 0.0]
    filtered = _per_component(line, "filtered")
    assert filtered[0] == 0.0 and filtered[1] == pytest.approx(1e-3, rel=1e-3)
    assert "max energy mismatch 0.000e+00" in line


def test_full_grid_control_csv_fails_replay(runs, tmp_path, capsys):
    """A control.csv with a row for every grid index, the layout before
    control.csv listed support columns only, is malformed at its first row
    off the control support."""
    out = tmp_path / "wave"
    shutil.copytree(runs / "wave", out)
    path = out / "control.csv"
    header, *rows = path.read_text().splitlines()
    values = {}
    for row in rows:
        t, k, i, re, im = row.split(",")
        values[(t, k, int(i))] = f"{re},{im}"
    nodes = dict.fromkeys((t, k) for t, k, _ in values)
    full = [f"{t},{k},{i},{values.get((t, k, i), '0,0')}" for t, k in nodes for i in range(60)]
    path.write_text("\n".join([header] + full) + "\n")
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert "control.csv, line 2: expected a row starting '0,2,42,', got '0,2,0,0,0'" in err


@pytest.mark.parametrize("run,sampling", [("wave", "node"), ("heat", "interval")])
def test_replay_ignores_an_old_control_sampling_key(runs, tmp_path, capsys, run, sampling):
    """A report that still records hum.control_sampling, as reports did while
    control signals carried their own quadrature, replays exactly."""
    out = tmp_path / run
    shutil.copytree(runs / run, out)
    report = json.loads((out / "report.json").read_text())
    assert "control_sampling" not in report["hum"]
    report["hum"]["control_sampling"] = sampling
    (out / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 0
    assert "max energy mismatch 0.000e+00" in capsys.readouterr().out


def test_2d_l_shaped_control_replays_exactly(tmp_path, capsys):
    cfg = tmp_path / "square.json"
    cfg.write_text(json.dumps(_square_cfg()))
    assert main(["control", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "run")]) == 0
    assert "max energy mismatch 0.000e+00" in capsys.readouterr().out


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


def _scale_median_sample(path, factor):
    """Scale value_re of the control.csv line whose magnitude is the median
    one; the rest of the file keeps its bytes."""
    header, *rows = path.read_text().splitlines()
    values = [abs(float(row.split(",")[3])) for row in rows]
    j = int(np.argsort(values)[len(values) // 2])
    t, k, i, re, im = rows[j].split(",")
    rows[j] = ",".join([t, k, i, repr(float(re) * factor), im])
    path.write_text("\n".join([header] + rows) + "\n")


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A `sweep-eps` run directory of the heat demo."""
    root = tmp_path_factory.mktemp("sweep")
    cfg = root / "heat.json"
    cfg.write_text(json.dumps(demo_configs()["demo_heat_cascade.json"]))
    assert main(["sweep-eps", "--config", str(cfg), "--out", str(root / "run")]) == 0
    return root / "run"


def test_sweep_eps_directory_replays(sweep, tmp_path, capsys):
    """sweep-eps writes the control of its last eps; replay checks it against
    that run's stored energies. A 1% change of the median-magnitude sample
    fails."""
    out = tmp_path / "sweep"
    shutil.copytree(sweep, out)
    report = json.loads((out / "report.json").read_text())
    assert "hum" not in report and report["sweep"]["runs"][-1]["eps"] == 1e-6
    capsys.readouterr()
    assert main(["replay", str(out)]) == 0
    assert float(capsys.readouterr().out.rsplit(" ", 1)[1].rstrip(")\n")) <= 1e-9
    _scale_median_sample(out / "control.csv", 1.01)
    assert main(["replay", str(out)]) == 2


def test_sweep_eps_stores_the_initial_state_it_verified(sweep, tmp_path, capsys):
    """initial_state.csv of a sweep-eps directory holds the filtered initial
    state that the sweep marched from, as a control directory's does, and
    replay starts from it."""
    report = json.loads((sweep / "report.json").read_text())
    exp = build_experiment(report["config"])
    stored = _read_state_csv(sweep / "initial_state.csv", exp)
    filtered, _ = SeedSpace(exp.sys, exp.K_filter).filtered(exp.Y0)
    assert stored.w.tobytes() == filtered.w.tobytes()
    out = tmp_path / "sweep"
    shutil.copytree(sweep, out)
    assert main(["replay", str(out)]) == 0


@pytest.fixture(scope="module")
def demos(tmp_path_factory):
    """`control` run directories of the canned wave, heat and chain3 demos."""
    root = tmp_path_factory.mktemp("demos")
    for name, demo in (("wave", "demo_wave_cascade.json"), ("heat", "demo_heat_cascade.json"),
                       ("chain3", "chain3_single_control.json")):
        cfg = root / f"{name}.json"
        cfg.write_text(json.dumps(demo_configs()[demo]))
        assert main(["control", "--config", str(cfg), "--out", str(root / name)]) in (0, 2)
    return root


@pytest.mark.parametrize("demo", ["wave", "heat", "chain3"])
@pytest.mark.parametrize("factor,code", [(1.01, 2), (1.0 + 1e-12, 0)], ids=["1%", "1e-12"])
def test_replay_checks_the_goal_not_the_bits(demos, tmp_path, capsys, demo, factor, code):
    """A 1% change of the median-magnitude control sample fails replay
    through the full terminal energy; a round-off change of it passes, since
    the filtered terminal energy is compared on the initial energy's scale."""
    out = tmp_path / demo
    shutil.copytree(demos / demo, out)
    _scale_median_sample(out / "control.csv", factor)
    capsys.readouterr()
    assert main(["replay", str(out)]) == code
    line = capsys.readouterr().out
    full = float(line.split("full terminal energy mismatch ")[1].split()[0])
    assert (full > 1e-9) == (code == 2)


@pytest.mark.parametrize("block", [5, [], {"runs": []}, {"runs": [3]}, {"runs": [{}]},
                                   {"runs": [{"terminal_energy_full": "x",
                                              "terminal_energy_filtered": 0.0}]}])
def test_replay_rejects_a_malformed_sweep_block(sweep, tmp_path, capsys, block):
    out = tmp_path / "sweep"
    shutil.copytree(sweep, out)
    report = json.loads((out / "report.json").read_text())
    report["sweep"] = block
    (out / "report.json").write_text(json.dumps(report))
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {out / 'report.json'}: needs config and "
                          "sweep.runs[-1].terminal_energy_full") and err.count("\n") == 1


def test_report_without_a_control_is_not_replayed(runs, tmp_path, capsys):
    out = tmp_path / "wave"
    shutil.copytree(runs / "wave", out)
    report = json.loads((out / "report.json").read_text())
    del report["hum"]
    (out / "report.json").write_text(json.dumps(report))
    assert main(["replay", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out / 'report.json'} carries no control synthesis\n"


def _one_error_line_naming(err, path):
    return err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("name", ["report.json", "control.csv", "initial_state.csv", None],
                         ids=["report.json", "control.csv", "initial_state.csv", "empty directory"])
def test_replay_of_a_missing_file_exits_1(runs, tmp_path, capsys, name):
    """A missing artifact is one error line naming it; an empty directory
    names its report.json, the first file replay reads."""
    out = tmp_path / "wave"
    if name is None:
        out.mkdir()
        missing = out / "report.json"
    else:
        shutil.copytree(runs / "wave", out)
        missing = out / name
        missing.unlink()
    assert main(["replay", str(out)]) == 1
    assert _one_error_line_naming(capsys.readouterr().err, missing)


@pytest.mark.parametrize("name", ["report.json", "control.csv", "initial_state.csv"])
def test_replay_of_a_file_that_is_not_utf8_exits_1(runs, tmp_path, capsys, name):
    """A 0xff byte, here in the middle of the file (past the first block of
    control.csv), is one error line naming the file, not a traceback."""
    out = tmp_path / "wave"
    shutil.copytree(runs / "wave", out)
    data = (out / name).read_bytes()
    (out / name).write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
    assert main(["replay", str(out)]) == 1
    assert _one_error_line_naming(capsys.readouterr().err, out / name)


def test_replay_of_a_directory_named_control_csv_exits_1(runs, tmp_path, capsys):
    out = tmp_path / "wave"
    shutil.copytree(runs / "wave", out)
    (out / "control.csv").unlink()
    (out / "control.csv").mkdir()
    assert main(["replay", str(out)]) == 1
    assert _one_error_line_naming(capsys.readouterr().err, out / "control.csv")


def test_wave_artifacts_do_not_depend_on_the_thread_count(tmp_path):
    """The wave demo's `control` and `observability` CSVs, and the heat demo's
    `sweep-eps` control, are byte-equal at 1 and 2 BLAS threads; each run is
    its own interpreter, so the setting takes hold. The heat Gramian reuses
    Crank-Nicolson trajectories across rows of a batched product, which holds
    only while a row's bits do not depend on the rows beside it."""
    for name in ("wave", "heat"):
        (tmp_path / f"{name}.json").write_text(
            json.dumps(demo_configs()[f"demo_{name}_cascade.json"]))
    src = os.path.dirname(os.path.dirname(cl.__file__))
    procs = []
    for command, demo in (("control", "wave"), ("observability", "wave"), ("sweep-eps", "heat")):
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            argv = [sys.executable, "-m", "cascade_lab.cli", command,
                    "--config", str(tmp_path / f"{demo}.json"),
                    "--out", str(tmp_path / command / threads)]
            procs.append(subprocess.Popen(argv, env=env, cwd=tmp_path, stdout=subprocess.DEVNULL))
    assert [p.wait() for p in procs] == [0] * 6
    for command, name in [("control", "control.csv"), ("control", "initial_state.csv"),
                          ("control", "spectra.csv"), ("observability", "gramian_spectra.csv"),
                          ("sweep-eps", "control.csv")]:
        one, two = (tmp_path / command / threads / name for threads in ("1", "2"))
        assert one.read_bytes() == two.read_bytes()
