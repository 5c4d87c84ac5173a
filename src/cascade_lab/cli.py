"""Command-line surface: one experiment per invocation, reproducible outputs.

Every subcommand that takes ``--config`` runs through ``_run``: it reads the
JSON config, writes its CSV artifacts and ``report.json`` (whose ``artifacts``
map lists them) to the output directory, prints a one-line summary and exits
with 0 (verdict pass / success) or 2 (verdict fail: GCC miss, admissibility
ratio over its bound, failed synthesis, partial sweep, rank-deficient Kalman
test). ``replay`` exits 2 on a mismatch of the full terminal energy
(relative) or of the filtered one (on the scale of the initial energy); its
line also prints both mismatches of each component, which inform only. Exit 1
is a usage or config error, an unreadable input file or a malformed replay
artifact. CSV floats carry 17 significant digits with LF endings, so identical
configs and seeds reproduce byte-identical artifacts. The row keys of
``control.csv`` and ``initial_state.csv`` are defined once each, by a layout
that the writer and replay's one reader both walk, so replay reads the rows in
written order.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .errors import CascadeLabError, ConfigError, NotApplicableError
from .geometry import Support, default_horizon, gcc_check, interval_entry_time
from .hum import SeedSpace, epsilon_sweep, synthesize_control
from .operators import BoundaryEnd, coupling_bounds
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


def write_spectra_csv(out_dir, name, header, rows):
    path = os.path.join(out_dir, name)
    with _open_w(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


def _basis_spectrum(exp):
    return write_spectra_csv, "spectra.csv", "index,eigenvalue", enumerate(exp.basis.eigenvalues, 1)


SERIES_HEADER = "t,component,index,value_re,value_im"
STATE_HEADER = "component,kind,index,value_re,value_im"


@functools.lru_cache(maxsize=64)
def _row_template(tails, is_complex):
    """The %-template of a row with these ``tails``: per entry, its head, its
    tail, then value_re and value_im, each with 17 significant digits, where
    a real row's value_im is the literal 0. The tails are the layouts' keys,
    commas and integers, so they hold no %."""
    cell = "%.17g,%.17g\n" if is_complex else "%.17g,0\n"
    return "".join(f"%s{tail}{cell}" for tail in tails)


def _write_rows(fh, head, tails, row):
    """One line per entry of ``row``: ``head``, its tail, then the real and
    imaginary parts with 17 significant digits (a real row's imaginary part
    is 0). ``tails`` is a tuple, so its template is made once. The row is
    listed on its own, so a whole array never becomes one Python list."""
    if len(tails) != row.shape[-1]:
        raise ValueError(f"{len(tails)} row keys for {row.shape[-1]} values")
    is_complex = np.iscomplexobj(row)
    parts = 3 if is_complex else 2
    args = [head] * (parts * len(tails))
    if is_complex:
        args[1::3], args[2::3] = row.real.tolist(), row.imag.tolist()
    else:
        args[1::2] = row.tolist()
    fh.write(_row_template(tails, is_complex) % tuple(args))


def _control_layout(sys, t):
    """The row keys of ``control.csv`` for the time nodes ``t``, as (head,
    tails) groups: component, then time node, then index. A distributed
    control has one row per support column, whose index is the grid index; a
    boundary control is one column with index 0."""
    times = [fmt_float(x) for x in t.tolist()]
    for k in sorted(sys.controls):
        ctl = sys.controls[k]
        indices = ctl.indices.tolist() if isinstance(ctl, Support) else [0]
        tails = tuple(f",{k},{i}," for i in indices)
        for ts in times:
            yield ts, tails


def _state_layout(N, n_total, hyperbolic):
    """The row keys of ``initial_state.csv``, as (head, tails) groups:
    component, then kind (``w``, then ``wp`` in the hyperbolic family), then
    index."""
    tails = tuple(f",{idx}," for idx in range(n_total))
    for i in range(N):
        for kind in ("w", "wp") if hyperbolic else ("w",):
            yield f"{i + 1},{kind}", tails


def write_control_csv(out_dir, signal, sys):
    """``control.csv`` of a control of ``sys``, in the rows of ``_control_layout``."""
    path = os.path.join(out_dir, "control.csv")
    rows = (row for k in sorted(signal.values)
            for row in signal.values[k].reshape(len(signal.t), -1))
    with _open_w(path) as fh:
        fh.write(SERIES_HEADER + "\n")
        for (head, tails), row in zip(_control_layout(sys, signal.t), rows, strict=True):
            _write_rows(fh, head, tails, row)
    return path


def write_state_csv(out_dir, state):
    """``initial_state.csv`` of ``state``, in the rows of ``_state_layout``."""
    path = os.path.join(out_dir, "initial_state.csv")
    N, n_total = state.w.shape
    rows = (state.w if state.wp is None
            else np.stack([state.w, state.wp], axis=1).reshape(2 * N, n_total))
    with _open_w(path) as fh:
        fh.write(STATE_HEADER + "\n")
        for (head, tails), row in zip(_state_layout(N, n_total, state.wp is not None), rows,
                                      strict=True):
            _write_rows(fh, head, tails, row)
    return path


def write_trajectory_csv(out_dir, snapshots):
    """``trajectory.csv``: snapshot time, then component, then index."""
    path = os.path.join(out_dir, "trajectory.csv")
    N, n_total = snapshots[0][1].shape if snapshots else (0, 0)
    tails = [tuple(f",{i + 1},{idx}," for idx in range(n_total)) for i in range(N)]
    with _open_w(path) as fh:
        fh.write(SERIES_HEADER + "\n")
        for t, w in snapshots:
            ts = fmt_float(t)
            for component_tails, row in zip(tails, w, strict=True):
                _write_rows(fh, ts, component_tails, row)
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
    """The closed-form coercivity constant (lambda_1) and the bounds of every
    coupling region; `check` and the `control` report share them."""
    return {
        "coercivity_constant": float(exp.basis.eigenvalues[0]),
        "coupling": [coupling_bounds(region, exp.grid) for region in exp.coupling_regions],
    }


def _check(exp, payload, args):
    """The admissibility ratios of every control, each observed on its own
    with the same seed and levels, decide the verdict; the closed-form
    constants are reported alongside."""
    if not exp.sys.control:
        raise NotApplicableError("system carries no control; the admissibility check observes "
                                 "through each control")
    hyp = _hypotheses(exp)
    boundary = any(isinstance(c, BoundaryEnd) for c in exp.sys.controls.values())
    default_levels = [exp.grid.n[0], 2 * exp.grid.n[0]] if boundary else [exp.grid.n[0]]
    levels = exp.analysis.get("levels", default_levels)
    adm = []
    ok = True
    for k, kind in exp.sys.control:
        report = admissibility_ratio(dataclasses.replace(exp.sys, control=((k, kind),)),
                                     exp.analysis.get("n_samples", 5), min(exp.T, 1.0), exp.dt,
                                     levels, seed=exp.seed)
        # a distributed observation is bounded by its own squared amplitude
        bound = math.inf if isinstance(kind, BoundaryEnd) else max(kind.amplitudes) ** 2
        ok &= all(math.isfinite(r) and r <= bound * (1 + 1e-9) + 1e-12
                  for r in report.max_ratios)
        adm.append({**dataclasses.asdict(report), "component": k})
    payload["hypotheses"] = {
        **hyp,
        "admissibility": adm,
        "notes": ["multiplier bounds are the closed-form amplitudes, in the base space only; "
                  "smoothness-scale boundedness is untested"],
    }
    summary = (f"{'pass' if ok else 'fail'} (coercivity {hyp['coercivity_constant']:.6g}, "
               f"max admissibility ratio {max(r for a in adm for r in a['max_ratios']):.4g})")
    return ok, summary, [_basis_spectrum(exp)]


def _control(exp, payload, args):
    result = synthesize_control(exp.sys, exp.Y0, exp.T, exp.dt, exp.K_filter,
                                eps=exp.eps, cg_tol=exp.cg_tol, max_iter=exp.max_iter)
    payload["hum"] = result.to_dict()
    payload["hypotheses"] = _hypotheses(exp)
    payload["gcc"] = _gcc_entries(exp)
    writers = [(write_control_csv, result.control, exp.sys),
               (write_state_csv, result.initial_state),
               _basis_spectrum(exp)]
    if args.snapshots:
        nodes = {round(t / exp.dt) for t in np.linspace(0.0, exp.T, args.snapshots + 1)}
        snapshots = []

        def visit(n, y, velocity=None):
            if n in nodes:
                snapshots.append((n * exp.dt, y.copy()))

        solve(exp.sys, result.initial_state, result.control, exp.T, exp.dt, visit)
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
    rows = []
    for entry in reports:
        for functional, prefix, constant in (("control", "", "c1_est"),
                                             ("coupling", "coupling_", "c2_est")):
            gram = entry.get(prefix + "gramian")
            if gram is None:
                continue
            rows += [(entry["T"], functional, i, lam)
                     for i, lam in enumerate(entry[prefix + "eigenvalues"], 1)]
            if gram["lambda_min"] <= gram["rank_threshold"]:
                payload["notes"].append(
                    f"{constant} at T={entry['T']:g} is numerically zero: lambda_min "
                    f"{gram['lambda_min']:.3g} <= rank_threshold {gram['rank_threshold']:.3g} "
                    f"(rank {gram['rank']} of {gram['dim']})")
    c1 = reports[-1]["c1_est"]
    summary = f"c1_est {'null' if c1 is None else f'{c1:.6g}'} at T={t_grid[-1]:g}"
    return True, summary, [(write_spectra_csv, "gramian_spectra.csv",
                            "T,functional,index,eigenvalue", rows)]


def _kalman(exp, payload, args):
    report = kalman_mode_test(exp.sys, exp.analysis.get("K", exp.K_filter))
    payload["kalman"] = dataclasses.asdict(report)
    summary = (f"{'full rank' if report.full_rank else 'rank deficient'} "
               f"over {len(report.modes)} modes")
    return report.full_rank, summary, [_basis_spectrum(exp)]


def _sweep(exp, payload, args):
    if not exp.eps_list:
        raise ConfigError("sweep-eps needs hum.eps_list in the config")
    sweep = epsilon_sweep(exp.sys, exp.Y0, exp.T, exp.dt, exp.K_filter,
                          exp.eps_list, cg_tol=exp.cg_tol, max_iter=exp.max_iter)
    payload["sweep"] = sweep.to_dict()
    summary = (f"slope {sweep.slope:.3f} over {len(sweep.eps_list)} eps values "
               f"({'partial' if sweep.partial else 'complete'})")
    last = sweep.results[-1]
    return not sweep.partial, summary, [(write_control_csv, last.control, exp.sys),
                                        (write_state_csv, last.initial_state)]


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


# a replay artifact is parsed this many lines at a time, so replay's peak
# memory stays bounded however large the file is, a full-domain control included
REPLAY_BLOCK_LINES = 4096

# replay passes when the full terminal energy matches the report to this
# relative tolerance and the filtered one to this fraction of the initial
# energy. The filtered terminal energy is a cancellation residual (about 1e-25
# of the initial energy on the wave demo), so compared relative to itself it
# would test the round-off of the march, not whether the control reaches its
# goal.
REPLAY_TOLERANCE = 1e-9


def _malformed(path, line, what):
    return ConfigError(f"malformed {path}, line {line}: {what}")


def _values(texts):
    """The lines as a (len(texts), 2) float array, or None when one of them
    is not two comma-separated finite numbers (blank lines included)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an all-blank block warns "no data"
            block = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    return block if block.shape == (len(texts), 2) and np.isfinite(block).all() else None


def _read_rows(path, header, layout, dtype):
    """The values of a CSV artifact written through ``layout``, flat, in its
    row order.

    ``layout`` is a list of (head, tails) groups; each line must start with
    the next key, head + tail, and carry value_re,value_im, finite, with
    value_im 0 when ``dtype`` is real. The file is read REPLAY_BLOCK_LINES
    lines at a time into one preallocated array and the keys are generated
    as they are needed, so memory stays bounded. A wrong header, a line that
    does not start with its key (a row out of order included), a bad value,
    an extra line or a missing one raises ConfigError naming the line.
    """
    out = np.empty(sum(len(tails) for _, tails in layout), dtype=dtype)
    keys = (head + tail for head, tails in layout for tail in tails)
    filled = 0
    with read_text(path) as fh:
        first = fh.readline().rstrip("\r\n")
        if first != header:
            raise _malformed(path, 1, f"header {first!r}, expected {header!r}")
        line = 2
        while lines := list(itertools.islice(fh, REPLAY_BLOCK_LINES)):
            block = list(itertools.islice(keys, len(lines)))
            if not all(map(str.startswith, lines, block)) or len(block) < len(lines):
                j = next((j for j, (text, key) in enumerate(zip(lines, block))
                          if not text.startswith(key)), len(block))
                expected = (f"a row starting {block[j]!r}" if j < len(block)
                            else "end of file")
                raise _malformed(path, line + j,
                                 f"expected {expected}, got {lines[j].rstrip()!r}")
            texts = [text[len(key):] for text, key in zip(lines, block)]
            values = _values(texts)
            if values is None:
                j = next((j for j, text in enumerate(texts) if _values([text]) is None), 0)
                raise _malformed(path, line + j, f"expected two finite numbers after "
                                 f"{block[j]!r}, got {lines[j].rstrip()!r}")
            re, im = values.T
            if np.iscomplexobj(out):
                out.real[filled:filled + len(lines)] = re
                out.imag[filled:filled + len(lines)] = im
            elif im.any():
                j = int(np.flatnonzero(im)[0])
                raise _malformed(path, line + j,
                                 f"value_im {fmt_float(im[j])} is not 0 in a real family")
            else:
                out[filled:filled + len(lines)] = re
            filled += len(lines)
            line += len(lines)
    if filled < len(out):
        raise _malformed(path, line, f"expected a row starting {next(keys)!r}, got end of file")
    return out


def _read_control_csv(path, exp):
    """The ControlSignal that ``write_control_csv`` wrote for ``exp``."""
    sys = exp.sys
    t = exp.dt * np.arange(step_count(exp.T, exp.dt) + 1)
    flat = _read_rows(path, SERIES_HEADER, list(_control_layout(sys, t)), sys.state_dtype)
    comps = sorted(sys.controls)
    shapes = [(len(t),) + sys.signal_shape(k) for k in comps]
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return ControlSignal(t, {k: part.reshape(shape)
                             for k, part, shape in zip(comps, parts, shapes)})


def _read_state_csv(path, exp):
    """The initial SystemState that ``write_state_csv`` wrote for ``exp``."""
    N, n_total, hyperbolic = exp.sys.N, exp.grid.n_total, exp.sys.is_hyperbolic
    flat = _read_rows(path, STATE_HEADER, list(_state_layout(N, n_total, hyperbolic)),
                      exp.sys.state_dtype)
    rows = flat.reshape(N, 1 + hyperbolic, n_total)
    return SystemState(0.0, rows[:, 0].copy(), rows[:, 1].copy() if hyperbolic else None)


def _cmd_replay(args):
    run_dir = args.directory
    report_path = os.path.join(run_dir, "report.json")
    control_path = os.path.join(run_dir, "control.csv")
    state_path = os.path.join(run_dir, "initial_state.csv")
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
        raise ConfigError(f"{report_path} carries no control synthesis")
    needed = ("terminal_energy_full", "terminal_energy_filtered")
    per_component = tuple(f"{key}_per_component" for key in needed)
    try:
        stored = report["hum"] if where == "hum" else report["sweep"]["runs"][-1]
        complete = ("config" in report and all(isinstance(stored[key], float) for key in needed)
                    and all(isinstance(stored[key], list)
                            and all(isinstance(v, float) for v in stored[key])
                            for key in per_component))
    except (KeyError, IndexError, TypeError):
        complete = False
    if not complete:
        raise ConfigError(f"malformed {report_path}: needs config and "
                          f"{', '.join(f'{where}.{key}' for key in needed)} as numbers and "
                          f"{', '.join(f'{where}.{key}' for key in per_component)} as lists "
                          "of numbers")
    exp = build_experiment(report["config"])
    for key in per_component:
        if len(stored[key]) != exp.sys.N:
            raise ConfigError(f"malformed {report_path}: {where}.{key} holds "
                              f"{len(stored[key])} entries for {exp.sys.N} components")
    signal = _read_control_csv(control_path, exp)
    initial = _read_state_csv(state_path, exp)
    seeds = SeedSpace(exp.sys, exp.K_filter)
    levels, terminal = solve(exp.sys, initial, signal, exp.T, exp.dt)
    filt, filt_total = seeds.energy_of(seeds.readout(levels, exp.dt))
    full = energy(exp.sys, terminal)
    scale = max(energy(exp.sys, initial).total, 1e-300)

    def relative(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    full_mismatch = relative(full.total, stored["terminal_energy_full"])
    filt_mismatch = abs(filt_total - stored["terminal_energy_filtered"]) / scale
    full_per = [relative(a, b) for a, b in
                zip(full.per_component, stored["terminal_energy_full_per_component"])]
    filt_per = [abs(a - b) / scale for a, b in
                zip(filt, stored["terminal_energy_filtered_per_component"])]
    mismatch = max(full_mismatch, filt_mismatch)
    ok = mismatch <= REPLAY_TOLERANCE
    print(f"replay: {'pass' if ok else 'fail'} (full terminal energy mismatch "
          f"{full_mismatch:.3e} relative, filtered {filt_mismatch:.3e} of the initial energy; "
          f"per component full {_listed(full_per)}, filtered {_listed(filt_per)}; "
          f"max energy mismatch {mismatch:.3e})")
    return 0 if ok else 2


def _listed(values):
    return "[" + ", ".join(f"{v:.3e}" for v in values) + "]"


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


def _count(text):
    """A nonnegative integer command-line value; anything else is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


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
        ("check", _check, "admissibility ratios, with closed-form coercivity and coupling bounds"),
        ("control", _control, "synthesize a null control and verify by re-simulation"),
        ("observability", _observability, "filtered observability constants"),
        ("kalman", _kalman, "per-mode rank test for constant couplings"),
        ("sweep-eps", _sweep, "penalized synthesis over a decreasing eps list"),
    ):
        p = sub.add_parser(name, help=helptext)
        with_config(p)
        if name == "control":
            p.add_argument("--snapshots", type=_count, default=0,
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
