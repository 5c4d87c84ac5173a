"""Command-line surface: one experiment per invocation, reproducible outputs.

Every subcommand that takes ``--config`` runs through ``_run``: it reads the
JSON config, writes its CSV artifacts and ``report.json`` (whose ``artifacts``
map lists them) to the output directory, prints a one-line summary and exits
with 0 (verdict pass / success) or 2 (verdict fail: GCC miss, failed
synthesis, partial sweep, rank-deficient Kalman test). ``replay`` exits 2 on
a mismatch. Exit 1 is a usage or config
error, an unreadable input file or a malformed replay artifact. CSV floats
carry 17 significant digits with LF endings, so identical configs and seeds
reproduce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys as _sys
import warnings

import numpy as np

from . import __version__
from .analysis import admissibility_ratio, kalman_mode_test, observability_constants
from .config import build_experiment, config_hash, load_config, read_text
from .dynamics import (
    ControlSignal,
    SystemState,
    energy,
    solve,
    step_count,
)
from .errors import CascadeLabError, ConfigError
from .geometry import Support, default_horizon, gcc_check, interval_entry_time
from .hum import SeedSpace, epsilon_sweep, synthesize_control
from .operators import BoundaryEnd, verify_coupling_bounds, verify_operator_coercivity
from .util import fmt_float


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_report(out_dir, payload):
    path = os.path.join(out_dir, "report.json")
    with _open_w(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_spectra_csv(out_dir, eigenvalues):
    path = os.path.join(out_dir, "spectra.csv")
    with _open_w(path) as fh:
        fh.write("index,eigenvalue\n")
        for i, lam in enumerate(eigenvalues, start=1):
            fh.write(f"{i},{fmt_float(lam)}\n")
    return path


SERIES_HEADER = "t,component,index,value_re,value_im"
STATE_HEADER = "component,kind,index,value_re,value_im"


def _write_rows(fh, head, tails, row):
    """One line per entry of ``row``: ``head``, its tail, then the real and
    imaginary parts with 17 significant digits. The row is listed on its own,
    so a whole array never becomes one Python list."""
    fh.write("".join([f"{head}{tail}{re:.17g},{im:.17g}\n"
                      for tail, re, im in zip(tails, row.real.tolist(), row.imag.tolist())]))


def _csv_indices(sys, k):
    """The index column of component k's rows in ``control.csv``: the grid
    indices of a distributed control's support, ascending, or [0] for an end
    control."""
    ctl = sys.controls[k]
    return ctl.indices.tolist() if isinstance(ctl, Support) else [0]


def write_control_csv(out_dir, signal, sys):
    """``control.csv`` of a control of ``sys``: component, then time node,
    then index. A distributed control has one row per support column, whose
    index is the grid index; a boundary control is one column with index 0."""
    path = os.path.join(out_dir, "control.csv")
    times = [fmt_float(t) for t in signal.t.tolist()]
    with _open_w(path) as fh:
        fh.write(SERIES_HEADER + "\n")
        for k in sorted(signal.values):
            indices = _csv_indices(sys, k)
            rows = signal.values[k].reshape(len(times), -1)
            if rows.shape[1] != len(indices):
                raise ValueError(f"component {k}: {rows.shape[1]} control columns "
                                 f"for {len(indices)} support columns")
            tails = [f",{k},{i}," for i in indices]
            for ts, row in zip(times, rows):
                _write_rows(fh, ts, tails, row)
    return path


def write_state_csv(out_dir, state):
    path = os.path.join(out_dir, "initial_state.csv")
    tails = [f",{idx}," for idx in range(state.w.shape[1])]
    with _open_w(path) as fh:
        fh.write(STATE_HEADER + "\n")
        for i in range(state.w.shape[0]):
            _write_rows(fh, f"{i + 1},w", tails, state.w[i])
            if state.wp is not None:
                _write_rows(fh, f"{i + 1},wp", tails, state.wp[i])
    return path


def write_trajectory_csv(out_dir, snapshots):
    path = os.path.join(out_dir, "trajectory.csv")
    with _open_w(path) as fh:
        fh.write(SERIES_HEADER + "\n")
        for t, w in snapshots:
            ts = fmt_float(t)
            for i, row in enumerate(w):
                _write_rows(fh, ts, [f",{i + 1},{idx}," for idx in range(row.shape[0])], row)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run(args, name, body):
    """The one frame of every subcommand that takes ``--config``.

    Builds the experiment and the report skeleton (config echo and hash,
    resolved T/dt/K_filter/steps, versions, build notes), then calls
    ``body(exp, payload, args)``, which fills its report sections and returns
    (ok, summary, writers): the verdict as a bool, the text of the stdout
    line, and the artifacts as (writer, *arguments) tuples. Only then is the
    output directory made, so a config error or a refusal writes nothing.
    Each writer is called with the directory first; ``report.json`` lists the
    files in its ``artifacts`` map, keyed by file stem, and is written last.
    Prints ``<name>: <summary> -> <out>`` and returns 0 on pass, 2 on fail.
    """
    exp = build_experiment(load_config(args.config))
    payload = {
        "subcommand": name,
        "config": exp.cfg,
        "config_hash": config_hash(exp.cfg),
        "resolved": {"T": exp.T, "dt": exp.dt, "K_filter": exp.K_filter,
                     "steps": step_count(exp.T, exp.dt)},
        "versions": {
            "cascade_lab": __version__,
            "numpy": np.__version__,
            "python": _sys.version.split()[0],
        },
        "notes": list(exp.notes),
    }
    ok, summary, writers = body(exp, payload, args)
    out = args.out or exp.cfg.get("output_dir") or "runs/latest"
    os.makedirs(out, exist_ok=True)
    files = [os.path.basename(write(out, *data)) for write, *data in writers]
    payload["artifacts"] = {os.path.splitext(f)[0]: f for f in files}
    payload["verdict"] = "pass" if ok else "fail"
    write_report(out, payload)
    print(f"{name}: {summary} -> {out}")
    return 0 if ok else 2


def _gcc_horizon(exp, regions):
    """Horizon of a GCC sweep over ``regions``: ``gcc.T`` when set, else T.

    The first-order family is controllable in any positive time, so its sweep
    runs to max(T, default_horizon) instead of the parabolic T.
    """
    if "T" in exp.gcc:
        return exp.gcc["T"]
    if exp.sys.is_hyperbolic:
        return exp.T
    return max(exp.T, default_horizon(regions, exp.grid.extents))


def _gcc_entries(exp):
    """Exact GCC report entries, one per coupling and distributed control
    region, over ``gcc.n_rays`` lattice rays at the ``_gcc_horizon``; in 1D
    each entry also carries the closed-form worst entry time."""
    regions = exp.coupling_regions + exp.control_regions
    n_rays = exp.gcc.get("n_rays", 402 if exp.grid.dim == 1 else 648)
    horizon = _gcc_horizon(exp, regions)
    entries = []
    for region in regions:
        entry = gcc_check(region, exp.grid.extents, horizon, n_rays).to_dict()
        if exp.grid.dim == 1:
            entry["worst_entry_time_exact"] = interval_entry_time(region, exp.grid.extents[0])
        entries.append(entry)
    return entries


def _gcc(exp, payload, args):
    if not exp.coupling_regions + exp.control_regions:
        raise ConfigError("gcc needs at least one coupling or distributed control region")
    reports = payload["gcc"] = _gcc_entries(exp)
    ok = all(r["verdict"] == "pass" for r in reports)
    summary = (f"{'pass' if ok else 'fail'} ({sum(r['rays_hit'] for r in reports)}/"
               f"{sum(r['rays_total'] for r in reports)} rays hit)")
    return ok, summary, []


def _hypotheses(exp):
    """The coercivity constant and the coupling-bound certificate of every
    coupling region, each over ``operators.COUPLING_SAMPLES`` random fields;
    `check` and the `control` report share them."""
    return {
        "coercivity_constant": verify_operator_coercivity(exp.basis),
        "coupling": [verify_coupling_bounds(region, exp.grid, seed=exp.seed).to_dict()
                     for region in exp.coupling_regions],
    }


def _check(exp, payload, args):
    hyp = _hypotheses(exp)
    lam1 = hyp["coercivity_constant"]
    boundary = any(isinstance(c, BoundaryEnd) for c in exp.sys.controls.values())
    default_levels = [exp.grid.n[0], 2 * exp.grid.n[0]] if boundary else [exp.grid.n[0]]
    adm = admissibility_ratio(exp.sys, exp.analysis.get("n_samples", 5), min(exp.T, 1.0), exp.dt,
                              exp.analysis.get("levels", default_levels), seed=exp.seed)
    slack_tol = -1e-9
    coupling_ok = all(c["slack_bound"] >= slack_tol and c["slack_coercivity"] >= slack_tol
                      for c in hyp["coupling"])
    ratios_ok = all(math.isfinite(r) for r in adm.max_ratios)
    if adm.observation == "distributed" and exp.control_regions:
        bound = max(max(r.amplitudes) for r in exp.control_regions) ** 2
        ratios_ok &= all(r <= bound * (1 + 1e-9) + 1e-12 for r in adm.max_ratios)
    ok = lam1 > 0 and coupling_ok and ratios_ok
    payload["hypotheses"] = {
        **hyp,
        "admissibility_ratios": adm.max_ratios,
        "admissibility": adm.to_dict(),
        "flags": {"coercivity": lam1 > 0, "coupling": coupling_ok, "admissibility": ratios_ok},
        "notes": ["multiplier bounds certified in the base space only; "
                  "smoothness-scale boundedness is untested"],
    }
    summary = (f"{'pass' if ok else 'fail'} (coercivity {lam1:.6g}, "
               f"max admissibility ratio {max(adm.max_ratios):.4g})")
    return ok, summary, [(write_spectra_csv, exp.basis.eigenvalues)]


def _control(exp, payload, args):
    result = synthesize_control(exp.sys, exp.Y0, exp.T, exp.dt, exp.K_filter,
                                eps=exp.eps, cg_tol=exp.cg_tol, max_iter=exp.max_iter)
    payload["hum"] = result.to_dict()
    payload["hypotheses"] = _hypotheses(exp)
    payload["gcc"] = _gcc_entries(exp)
    writers = [(write_control_csv, result.control, exp.sys),
               (write_state_csv, result.initial_state),
               (write_spectra_csv, exp.basis.eigenvalues)]
    if args.snapshots:
        nodes = {round(t / exp.dt) for t in np.linspace(0.0, exp.T, args.snapshots + 1)}
        snapshots = []

        def visit(n, y, velocity=None):
            if n in nodes:
                snapshots.append((n * exp.dt, y.copy()))

        solve(exp.sys, exp.Y0, result.control, exp.T, exp.dt, visit)
        writers.append((write_trajectory_csv, snapshots))
    ratio = (result.terminal_energy_filtered / result.initial_energy
             if result.initial_energy > 0 else 0.0)
    summary = (f"{'pass' if result.success else 'fail'} "
               f"(filtered terminal/initial energy {ratio:.3e}, "
               f"{result.refinement_passes} refinement passes)")
    return result.success, summary, writers


def _observability(exp, payload, args):
    t_grid = exp.analysis.get("t_grid", [exp.T])
    K = exp.analysis.get("K", min(exp.K_filter, 5))
    reports = payload["observability"] = observability_constants(exp.sys, t_grid, exp.dt, K)
    if not exp.sys.control:
        payload["notes"].append("c1_est is null: system carries no control; the control "
                                "observability constant is undefined")
    c1 = reports[-1]["c1_est"]
    summary = f"c1_est {'null' if c1 is None else f'{c1:.6g}'} at T={t_grid[-1]:g}"
    return True, summary, [(write_spectra_csv, reports[-1]["eigenvalues"])]


def _kalman(exp, payload, args):
    report = kalman_mode_test(exp.sys, exp.analysis.get("K", exp.K_filter))
    payload["kalman"] = report.to_dict()
    summary = (f"{'full rank' if report.full_rank else 'rank deficient'} "
               f"over {len(report.modes)} modes")
    return report.full_rank, summary, [(write_spectra_csv, exp.basis.eigenvalues)]


def _sweep(exp, payload, args):
    if not exp.eps_list:
        raise ConfigError("sweep-eps needs hum.eps_list in the config")
    sweep = epsilon_sweep(exp.sys, exp.Y0, exp.T, exp.dt, exp.K_filter,
                          exp.eps_list, cg_tol=exp.cg_tol, max_iter=exp.max_iter)
    payload["sweep"] = sweep.to_dict()
    summary = (f"slope {sweep.slope:.3f} over {len(sweep.eps_list)} eps values "
               f"({'partial' if sweep.partial else 'complete'})")
    return not sweep.partial, summary, [(write_control_csv, sweep.results[-1].control, exp.sys),
                                        (write_state_csv, exp.Y0)]


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


# control.csv is parsed this many lines at a time, so replay's peak memory
# stays bounded however large the file is, a full-domain control included
REPLAY_BLOCK_LINES = 4096


def _malformed(path, line, what):
    return ConfigError(f"malformed {path}, line {line}: {what}")


def _parse_block(lines, path, first_line):
    """The lines as a (len(lines), 5) float array; ConfigError at the first
    line that is not five comma-separated numbers (blank lines included)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an all-blank block warns "no data"
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if block.shape == (len(lines), 5):
            return block
    except (ValueError, UserWarning):
        pass

    def parses(line):
        try:
            return np.loadtxt([line], delimiter=",", comments=None, ndmin=2).shape == (1, 5)
        except ValueError:
            return False

    j = next((j for j, line in enumerate(lines) if not line.strip() or not parses(line)), 0)
    raise _malformed(path, first_line + j,
                     f"expected five comma-separated numbers, got {lines[j].rstrip()!r}")


def _read_control_csv(path, exp):
    """Read control.csv block by block into the replay's ControlSignal.

    Every (component, time node, index) of the controlled components must
    appear exactly once, in any order, where a distributed control lists the
    grid indices of its support only, and value_im is 0 in a real family;
    anything else, a grid index off the support included, raises ConfigError
    naming the first offending line.
    """
    M = step_count(exp.T, exp.dt)
    sys = exp.sys
    comps = sorted(sys.controls)
    columns = [_csv_indices(sys, k) for k in comps]
    # an index column holds 0..n_total-1 for a distributed control, 0 for an
    # end control; lookup maps it to its column, -1 off the support, and the
    # trailing slot (components outside the controlled set) takes no index
    spans = np.array([sys.grid.n_total if isinstance(sys.controls[k], Support) else 1
                      for k in comps] + [0])
    starts = np.concatenate([[0], np.cumsum(spans)])
    lookup = np.full(starts[-1] + 1, -1)
    for s, cols in enumerate(columns):
        lookup[starts[s] + np.array(cols, dtype=np.intp)] = np.arange(len(cols))
    # a trailing NaN entry absorbs components outside the controlled set
    ks = np.array(comps + [np.nan])
    widths = np.array([len(cols) for cols in columns] + [0])
    offsets = np.concatenate([[0], np.cumsum((M + 1) * widths)])
    buf = np.zeros(offsets[-1], dtype=sys.state_dtype)
    seen = np.zeros(buf.shape, dtype=bool)
    with read_text(path) as fh:
        header = fh.readline().rstrip("\r\n")
        if header != SERIES_HEADER:
            raise _malformed(path, 1, f"header {header!r}, expected {SERIES_HEADER!r}")
        line = 2
        while lines := list(itertools.islice(fh, REPLAY_BLOCK_LINES)):
            t, comp, idx, re, im = _parse_block(lines, path, line).T
            slot = np.minimum(np.searchsorted(ks, comp), len(columns))
            span = spans[slot]
            steps = t / exp.dt
            n = np.rint(steps)
            in_range = (idx >= 0) & (idx < span) & (idx == np.floor(idx))
            col = lookup[np.where(in_range, starts[slot] + idx, -1).astype(np.intp)]
            checks = (
                (ks[slot] == comp, lambda j: f"component {comp[j]:g} is not controlled"),
                ((np.abs(steps - n) <= 1e-9) & (n >= 0) & (n <= M),
                 lambda j: f"t={t[j]:.17g} is not a time node n*dt, n in 0..{M}"),
                (in_range, lambda j: f"index {idx[j]:g} outside 0..{span[j] - 1}"),
                (col >= 0, lambda j: f"index {idx[j]:g} is off the control support of "
                                     f"component {comp[j]:g}"),
                (np.isfinite(re) & np.isfinite(im), lambda j: "value is not finite"),
                (np.iscomplexobj(buf) | (im == 0),
                 lambda j: f"value_im {im[j]:.17g} is not 0 in a real family"),
            )
            valid = np.logical_and.reduce([ok for ok, _ in checks])
            rows = np.flatnonzero(valid)
            flat = (offsets[slot] + n * widths[slot] + col)[rows].astype(np.intp)
            repeat = np.ones(flat.shape, dtype=bool)
            repeat[np.unique(flat, return_index=True)[1]] = False
            bad = ~valid
            bad[rows[repeat | seen[flat]]] = True
            if bad.any():
                j = int(np.argmax(bad))
                what = next((why(j) for ok, why in checks if not ok[j]),
                            "repeats an earlier (component, t, index)")
                raise _malformed(path, line + j, what)
            seen[flat] = True
            if np.iscomplexobj(buf):
                buf.real[flat] = re
                buf.imag[flat] = im
            else:
                buf[flat] = re
            line += len(lines)
    if not seen.all():
        first = int(np.argmin(seen))
        s = int(np.searchsorted(offsets, first, side="right")) - 1
        n, i = divmod(first - int(offsets[s]), int(widths[s]))
        raise ConfigError(f"malformed {path}: no row for component {comps[s]}, "
                          f"t={fmt_float(n * exp.dt)}, index {columns[s][i]}")
    vals = {k: buf[offsets[s]:offsets[s + 1]].reshape((M + 1,) + sys.signal_shape(k))
            for s, k in enumerate(comps)}
    return ControlSignal(exp.dt * np.arange(M + 1), vals)


def _read_state_csv(path, exp):
    """Read initial_state.csv; every (component, kind, index) must appear
    exactly once, with kind ``wp`` only in the hyperbolic family and value_im
    0 in a real family."""
    N, n_total = exp.sys.N, exp.grid.n_total
    kinds = ("w", "wp") if exp.sys.is_hyperbolic else ("w",)
    state = SystemState(0.0, np.zeros((N, n_total), dtype=exp.sys.state_dtype),
                        np.zeros((N, n_total)) if exp.sys.is_hyperbolic else None)
    seen = np.zeros((len(kinds), N, n_total), dtype=bool)
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = ",".join(next(reader, []))
        if header != STATE_HEADER:
            raise _malformed(path, 1, f"header {header!r}, expected {STATE_HEADER!r}")
        for row in reader:
            try:
                comp, kind, idx, re, im = row
                i, idx, v = int(comp) - 1, int(idx), complex(float(re), float(im))
            except ValueError:
                raise _malformed(path, reader.line_num,
                                 f"expected {STATE_HEADER}, got {','.join(row)!r}") from None
            if not 0 <= i < N:
                what = f"component {comp} outside 1..{N}"
            elif kind not in kinds:
                what = f"kind {kind!r} is not one of {', '.join(kinds)}"
            elif not 0 <= idx < n_total:
                what = f"index {idx} outside 0..{n_total - 1}"
            elif not np.isfinite(v):
                what = "value is not finite"
            elif v.imag != 0 and not np.iscomplexobj(state.w):
                what = f"value_im {im} is not 0 in a real family"
            elif seen[kinds.index(kind), i, idx]:
                what = "repeats an earlier (component, kind, index)"
            else:
                seen[kinds.index(kind), i, idx] = True
                target = state.w if kind == "w" else state.wp
                target[i, idx] = v if np.iscomplexobj(target) else v.real
                continue
            raise _malformed(path, reader.line_num, what)
    if not seen.all():
        s, i, idx = np.unravel_index(int(np.argmin(seen)), seen.shape)
        raise ConfigError(f"malformed {path}: no row for component {i + 1}, "
                          f"kind {kinds[s]}, index {idx}")
    return state


def _cmd_replay(args):
    run_dir = args.directory
    report_path = os.path.join(run_dir, "report.json")
    control_path = os.path.join(run_dir, "control.csv")
    state_path = os.path.join(run_dir, "initial_state.csv")
    for path in (report_path, control_path, state_path):
        if not os.path.exists(path):
            print(f"replay: missing {os.path.basename(path)} in {run_dir}", file=_sys.stderr)
            return 1
    with read_text(report_path) as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed {report_path}: {exc}") from None
    if not isinstance(report, dict):
        raise ConfigError(f"malformed {report_path}: not a JSON object")
    # a sweep-eps directory holds the control of its last eps
    where = "hum" if "hum" in report else "sweep.runs[-1]" if "sweep" in report else None
    if where is None:
        print("replay: report carries no control synthesis", file=_sys.stderr)
        return 1
    needed = ("terminal_energy_full", "terminal_energy_filtered")
    try:
        stored = report["hum"] if where == "hum" else report["sweep"]["runs"][-1]
        complete = "config" in report and all(isinstance(stored[key], float) for key in needed)
    except (KeyError, IndexError, TypeError):
        complete = False
    if not complete:
        raise ConfigError(f"malformed {report_path}: needs config and "
                          f"{', '.join(f'{where}.{key}' for key in needed)} as numbers")
    exp = build_experiment(report["config"])
    signal = _read_control_csv(control_path, exp)
    initial = _read_state_csv(state_path, exp)
    seeds = SeedSpace(exp.sys, exp.K_filter)
    levels, terminal = solve(exp.sys, initial, signal, exp.T, exp.dt)
    _, filt_total = seeds.energy_of(seeds.readout(levels, exp.dt))
    full = energy(exp.sys, terminal)

    def rel(a, b):
        scale = max(abs(a), abs(b), 1e-300)
        return abs(a - b) / scale

    mismatch = max(rel(full.total, stored["terminal_energy_full"]),
                   rel(filt_total, stored["terminal_energy_filtered"]))
    ok = mismatch <= 1e-9
    print(f"replay: {'pass' if ok else 'fail'} (max energy mismatch {mismatch:.3e})")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# demo configs
# ---------------------------------------------------------------------------


def demo_configs():
    """Canned desk-scale scenarios, including the disjoint-regions headline."""
    wave = {
        "domain": {"extents": [1.0], "n": [200]},
        "family": {"kind": "hyperbolic"},
        "N": 2, "p": 1,
        "coupling": [{"pair": [1, 2], "boxes": [[[0.2, 0.4]]], "amplitude": 1.0}],
        "control": [{"component": 2, "kind": "distributed", "boxes": [[[0.7, 0.9]]],
                     "amplitude": 1.0}],
        "time": {"T": 6.0, "dt": None},
        "hum": {"K_filter": 30, "eps": 0.0, "cg_tol": 1e-10, "max_iter": 500},
        "initial": [
            {"component": 1, "position_modes": [[1, 1.0]], "velocity_modes": []},
            {"component": 2, "position_modes": [[2, 0.5]], "velocity_modes": []},
        ],
        "gcc": {"n_rays": 402, "T": None},
        "output_dir": "runs/demo_wave_cascade",
        "seed": 20240501,
    }
    # the coupling amplitude is deliberately large: indirect observability
    # through disjoint regions is weak for the heat pair, and the sweep needs
    # the Gramian spectrum to straddle the eps range (no smallness condition
    # on couplings is required anywhere)
    heat = {
        "domain": {"extents": [1.0], "n": [100]},
        "family": {"kind": "dissipative", "theta": 0.0},
        "N": 2, "p": 1,
        "coupling": [{"pair": [1, 2], "boxes": [[[0.2, 0.4]]], "amplitude": 16.0}],
        "control": [{"component": 2, "kind": "distributed", "boxes": [[[0.7, 0.9]]],
                     "amplitude": 1.0}],
        "time": {"T": 0.4, "dt": 0.0016},
        "hum": {"K_filter": 12, "cg_tol": 1e-9,
                "eps_list": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]},
        "initial": [
            {"component": 1, "modes": [[1, 1.0]]},
            {"component": 2, "modes": [[1, 1.0]]},
        ],
        "output_dir": "runs/demo_heat_cascade",
        "seed": 20240502,
    }
    strip = {
        "domain": {"extents": [1.0, 1.0], "n": [20, 20]},
        "family": {"kind": "hyperbolic"},
        "N": 2, "p": 1,
        "coupling": [{"pair": [1, 2], "boxes": [[[0.4, 0.6], [0.0, 1.0]]],
                      "amplitude": 1.0, "label": "vertical strip"}],
        "control": [],
        "time": {"T": 10.0, "dt": None},
        "hum": {"K_filter": 5},
        "initial": [{"component": 1, "position_modes": [[1, 1.0]], "velocity_modes": []}],
        "gcc": {"n_rays": 648, "T": 10.0},
        "output_dir": "runs/strip_square",
        "seed": 20240503,
    }
    zero = {
        "domain": {"extents": [1.0], "n": [80]},
        "family": {"kind": "hyperbolic"},
        "N": 2, "p": 1,
        "coupling": [{"pair": [1, 2], "boxes": [[[0.2, 0.4]]], "amplitude": 0.0}],
        "control": [{"component": 2, "kind": "distributed", "boxes": [[[0.7, 0.9]]],
                     "amplitude": 1.0}],
        "time": {"T": 4.0, "dt": None},
        "hum": {"K_filter": 12, "eps": 0.0, "cg_tol": 1e-10, "max_iter": 200},
        "initial": [
            {"component": 1, "position_modes": [[1, 1.0]], "velocity_modes": []},
            {"component": 2, "position_modes": [[1, 0.5]], "velocity_modes": []},
        ],
        "output_dir": "runs/zero_coupling",
        "seed": 20240504,
    }
    # two coupling hops make the Gramian ill-conditioned; generous overlapping
    # regions and amplitude 3 keep its condition number near 1e7
    chain = {
        "domain": {"extents": [1.0], "n": [120]},
        "family": {"kind": "hyperbolic"},
        "N": 3, "p": 2,
        "coupling": [
            {"pair": [1, 2], "boxes": [[[0.15, 0.45]]], "amplitude": 3.0},
            {"pair": [2, 3], "boxes": [[[0.4, 0.7]]], "amplitude": 3.0},
        ],
        "control": [{"component": 3, "kind": "distributed", "boxes": [[[0.65, 0.95]]],
                     "amplitude": 1.0}],
        "time": {"T": 12.0, "dt": None},
        "hum": {"K_filter": 12, "eps": 0.0, "cg_tol": 1e-6, "max_iter": 2000},
        "initial": [
            {"component": 1, "position_modes": [[1, 1.0]], "velocity_modes": []},
            {"component": 2, "position_modes": [[2, 0.3]], "velocity_modes": []},
            {"component": 3, "position_modes": [[3, 0.3]], "velocity_modes": []},
        ],
        "output_dir": "runs/chain3",
        "seed": 20240505,
    }
    return {
        "demo_wave_cascade.json": wave,
        "demo_heat_cascade.json": heat,
        "strip_square.json": strip,
        "zero_coupling.json": zero,
        "chain3_single_control.json": chain,
    }


def _cmd_demo(args):
    out = args.out or "demo_configs"
    os.makedirs(out, exist_ok=True)
    configs = demo_configs()
    for name, cfg in configs.items():
        with _open_w(os.path.join(out, name)) as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"demo: wrote {len(configs)} configs to {out} "
          f"(run e.g. `cascade-lab control --config {out}/demo_wave_cascade.json`)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser():
    parser = argparse.ArgumentParser(
        prog="cascade-lab",
        description="Null-control experiments for cascade-coupled evolution systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="experiment JSON config")
        p.add_argument("--out", default=None, help="output directory override")

    for name, body, helptext in (
        ("gcc", _gcc, "exact billiard-ray geometric control condition per region"),
        ("check", _check, "coercivity, coupling-bound and admissibility checks"),
        ("control", _control, "synthesize a null control and verify by re-simulation"),
        ("observability", _observability, "filtered observability constants"),
        ("kalman", _kalman, "per-mode rank test for constant couplings"),
        ("sweep-eps", _sweep, "penalized synthesis over a decreasing eps list"),
    ):
        p = sub.add_parser(name, help=helptext)
        with_config(p)
        if name == "control":
            p.add_argument("--snapshots", type=int, default=0,
                           help="write trajectory.csv with this many snapshots")
        p.set_defaults(fn=functools.partial(_run, name=name, body=body))

    p = sub.add_parser("replay", help="re-simulate a stored run and compare energies")
    p.add_argument("directory", help="run directory with report.json and CSVs")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("demo", help="write the canned demo configs")
    p.add_argument("--out", default=None, help="directory for the configs")
    p.set_defaults(fn=_cmd_demo)
    return parser


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CascadeLabError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
