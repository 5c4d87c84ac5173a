"""Span tracer installed from outside the program, around its public entry points.

Runs inside a traced CLI child process (see child.py). Every wrapped call is
a frame on one stack, so each call's self time is its duration minus the time
its wrapped callees took. Calls are recorded as spans (name, start, end,
parent, info) kept in memory and written out when the process ends.

Three functions are "hot": CascadeSystem.apply_system, EllipticOperator.matvec
and scipy.linalg.solve_banded, called about a million times per wave run.
They are not recorded span by span; their count, total and self time are
accumulated per name, and their time is charged to the enclosing span as
child time, so self times stay exact.

A target that a later version of the program no longer has is skipped and
listed under ``missing``; its counters then read 0.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time

THREADS_ENV = "CASCADE_LAB_THREADS"

# (layer, module, attribute path, kind); kind is "span", "hot" or "rerun".
# "rerun" spans are timed a second time with CASCADE_LAB_THREADS=nproc.
# The private leapfrog/CN marches are wrapped too, so the time of their step
# loops is charged to dynamics rather than to the hum method that called them.
TARGETS = [
    ("config", "cascade_lab.config", "load_config", "span"),
    ("config", "cascade_lab.config", "build_experiment", "span"),
    ("operators", "cascade_lab.operators", "spectral_basis", "span"),
    ("operators", "cascade_lab.operators", "EllipticOperator.matvec", "hot"),
    ("dynamics", "cascade_lab.dynamics", "CascadeSystem.apply_system", "hot"),
    ("dynamics", "scipy.linalg", "solve_banded", "hot"),
    ("dynamics", "cascade_lab.dynamics", "solve_hyperbolic", "span"),
    ("dynamics", "cascade_lab.dynamics", "solve_dissipative", "span"),
    ("dynamics", "cascade_lab.dynamics", "_hyp_forward", "span"),
    ("dynamics", "cascade_lab.dynamics", "_hyp_adjoint", "span"),
    ("dynamics", "cascade_lab.dynamics", "_cn_forward", "span"),
    ("dynamics", "cascade_lab.dynamics", "_cn_adjoint", "span"),
    ("hum", "cascade_lab.hum", "synthesize_control", "span"),
    ("hum", "cascade_lab.hum", "epsilon_sweep", "span"),
    ("hum", "cascade_lab.hum", "conjugate_gradient", "span"),
    ("hum", "cascade_lab.hum", "GramianOperator.apply", "span"),
    ("hum", "cascade_lab.hum", "GramianOperator.observations_of", "span"),
    ("hum", "cascade_lab.hum", "GramianOperator.forward_with_control", "span"),
    ("analysis", "cascade_lab.analysis", "observability_constants", "span"),
    ("analysis", "cascade_lab.analysis", "assemble_dense_gramian", "rerun"),
    ("analysis", "cascade_lab.analysis", "admissibility_ratio", "span"),
    ("geometry", "cascade_lab.geometry", "gcc_check", "rerun"),
    ("cli", "cascade_lab.cli", "write_report", "span"),
    ("cli", "cascade_lab.cli", "write_spectra_csv", "span"),
    ("cli", "cascade_lab.cli", "write_control_csv", "span"),
    ("cli", "cascade_lab.cli", "write_state_csv", "span"),
    ("cli", "cascade_lab.cli", "write_trajectory_csv", "span"),
]
ROOT = "cli.main"
LAYERS = ("config", "operators", "dynamics", "hum", "analysis", "geometry", "cli")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _steps_of_solve(args, kwargs, result):
    return {"steps": len(result[0].times) - 1}


def _steps_of_gram(args, kwargs, result):
    return {"steps": args[0].M, "seed_dim": args[0].seeds.dim}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _energy_ratio(args, kwargs, result):
    if result.initial_energy > 0:
        return {"energy_ratio": result.terminal_energy_filtered / result.initial_energy}
    return {}


def _rays(args, kwargs, result):
    horizon = _arg(args, kwargs, 2, "T")
    dt_ray = _arg(args, kwargs, 4, "dt_ray")
    samples = result.rays_total * (math.ceil(horizon / dt_ray) + 1)
    return {"rays": result.rays_total, "ray_samples": samples}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _matvec_bytes(args, kwargs):
    # computed from array sizes: the input read once and the output written once
    return 2 * getattr(args[1], "nbytes", 0)


INFO = {
    "solve_hyperbolic": _steps_of_solve,
    "solve_dissipative": _steps_of_solve,
    "GramianOperator.observations_of": _steps_of_gram,
    "GramianOperator.forward_with_control": _steps_of_gram,
    "GramianOperator.apply": _steps_of_gram,
    "conjugate_gradient": _iterations,
    "synthesize_control": _energy_ratio,
    "gcc_check": _rays,
}
WEIGH = {"EllipticOperator.matvec": _matvec_bytes}


class Tracer:
    def __init__(self, nproc):
        self.nproc = nproc
        # [name, start, end, parent index, info, child time, excluded time]
        self.spans = []
        self.stack = [[0.0, -1]]   # [child time, enclosing span index]
        self.hot = {}        # name -> [count, total, self, weight]
        self.rerun_s = 0.0   # time of the nproc re-runs, excluded from all spans
        self.paused = False
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, info, rerun):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            frame = [0.0, idx]
            span = [name, 0.0, 0.0, stack[-1][1], None, 0.0, 0.0]
            spans.append(span)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][0] += t1 - t0 - span[6]
                span[1], span[2], span[5] = t0, t1, frame[0]
            if info is not None:
                try:
                    span[4] = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # a later program version changed the shape; keep the span
                    span[4] = {"info_error": repr(exc)}
            if rerun:
                span[4] = dict(span[4] or {}, nproc_s=self._rerun(fn, args, kwargs))
            return result

        return wrapper

    def _hot(self, name, fn, weigh):
        stats = self.hot.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if weigh is not None:
                    stats[3] += weigh(args, kwargs)

        return wrapper

    def _rerun(self, fn, args, kwargs):
        """Time fn again, untraced, with the thread cap at nproc."""
        saved = os.environ.get(THREADS_ENV)
        os.environ[THREADS_ENV] = str(self.nproc)
        self.paused = True
        t0 = time.perf_counter()
        try:
            fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self.paused = False
            if saved is None:
                del os.environ[THREADS_ENV]
            else:
                os.environ[THREADS_ENV] = saved
        self.rerun_s += elapsed
        # the re-run sits inside every open span: exclude it from their times
        idx = self.stack[-1][1]
        while idx >= 0:
            self.spans[idx][6] += elapsed
            idx = self.spans[idx][3]
        return elapsed

    def root(self, fn, *args):
        """Run fn(*args) as the root span of the invocation."""
        return self._span(ROOT, fn, None, False)(*args)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target and rebind it wherever cascade_lab imported it."""
        for _, module_name, path, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(path)
                continue
            if kind == "hot":
                wrapped = self._hot(path, original, WEIGH.get(path))
            else:
                info = _file_bytes if path.startswith("write_") else INFO.get(path)
                wrapped = self._span(path, original, info, kind == "rerun")
            setattr(owner, attr, wrapped)
            if owner is module:
                # `from .x import name` bindings in the other package modules
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("cascade_lab") and mod is not module:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

    def dump(self):
        return {"spans": self.spans, "hot": self.hot, "rerun_s": self.rerun_s,
                "missing": self.missing}


# ---------------------------------------------------------------------------
# aggregation (driver side)
# ---------------------------------------------------------------------------

LAYER_OF = {path: layer for layer, _, path, _ in TARGETS}
LAYER_OF[ROOT] = "cli"


def _under(spans, idx, name):
    """True when span idx has an ancestor called name."""
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(invocations):
    """Per-layer metrics from the trace dumps of one workload iteration.

    ``invocations`` is a list of (label, dump, import_s) per CLI invocation.
    """
    m = {key: 0.0 for key in METRIC_UNITS}
    m["cli.invocations"] = len(invocations)
    for label, dump, import_s in invocations:
        m["config.import_s"] += import_s
        spans, hot = dump["spans"], dump["hot"]
        for name, (count, total, self_s, weight) in hot.items():
            m[f"{LAYER_OF[name]}.self_s"] += self_s
            if name == "EllipticOperator.matvec":
                m["operators.matvec_calls"] += count
                m["operators.matvec_s"] += total
                m["operators.matvec_mb_computed"] += weight / 1e6
            elif name == "CascadeSystem.apply_system":
                m["dynamics.apply_system_calls"] += count
                m["dynamics.apply_system_self_s"] += self_s
            elif name == "solve_banded":
                m["dynamics.banded_solves"] += count
                m["dynamics.banded_solve_s"] += total
        for idx, (name, start, end, _, info, child_s, excluded_s) in enumerate(spans):
            dur = end - start - excluded_s
            info = info or {}
            m[f"{LAYER_OF[name]}.self_s"] += dur - child_s
            in_synth = _under(spans, idx, "synthesize_control")
            if name == ROOT and label == "replay":
                m["cli.replay_s"] += dur
            elif name == "build_experiment":
                m["config.build_experiment_s"] += dur
            elif name == "spectral_basis":
                m["operators.spectral_basis_s"] += dur
                m["operators.spectral_basis_calls"] += 1
            elif name == "solve_hyperbolic":
                m["dynamics.solve_hyperbolic_s"] += dur
            elif name == "synthesize_control":
                m["hum.synthesize_s"] += dur
                m["hum.synthesize_calls"] += 1
                m["hum.terminal_energy_ratio"] = max(m["hum.terminal_energy_ratio"],
                                                     info.get("energy_ratio", 0.0))
            elif name == "conjugate_gradient":
                m["hum.cg_iterations"] += info.get("iterations", 0)
                m["hum.cg_self_s"] += dur - child_s
            elif name == "GramianOperator.apply":
                if in_synth:
                    m["hum.gramian_applies"] += 1
                    m["hum.gramian_apply_s"] += dur
                    m["hum.seed_dim"] = max(m["hum.seed_dim"], info.get("seed_dim", 0))
                if _under(spans, idx, "assemble_dense_gramian"):
                    m["analysis.dense_gramian_columns"] += 1
            elif name == "GramianOperator.observations_of" and in_synth:
                m["hum.adjoint_marches"] += 1
                m["hum.adjoint_march_s"] += dur
            elif name == "GramianOperator.forward_with_control" and in_synth:
                m["hum.forward_marches"] += 1
                m["hum.forward_march_s"] += dur
            elif name == "observability_constants":
                m["analysis.observability_s"] += dur
            elif name == "assemble_dense_gramian":
                m["analysis.dense_gramian_s"] += dur
                m["analysis.dense_gramian_nproc_s"] += info.get("nproc_s", 0.0)
            elif name == "admissibility_ratio":
                m["analysis.admissibility_s"] += dur
            elif name == "gcc_check":
                m["geometry.gcc_check_s"] += dur
                m["geometry.gcc_check_nproc_s"] += info.get("nproc_s", 0.0)
                m["geometry.rays"] += info.get("rays", 0)
                m["geometry.ray_samples"] += info.get("ray_samples", 0)
            elif name.startswith("write_"):
                m["cli.artifact_write_s"] += dur
                m["cli.artifact_mb"] += info.get("bytes", 0) / 1e6
            # time steps of every march entered through a public boundary
            if name in ("solve_hyperbolic", "solve_dissipative",
                        "GramianOperator.observations_of",
                        "GramianOperator.forward_with_control"):
                m["dynamics.steps"] += info.get("steps", 0)
    if m["hum.seed_dim"]:
        m["hum.applies_per_seed_dim"] = m["hum.gramian_applies"] / m["hum.seed_dim"]
    return {key: int(value) if METRIC_UNITS[key] == "count" else value
            for key, value in m.items()}


def _units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "config.import_s": "s", "config.build_experiment_s": "s",
        "operators.spectral_basis_s": "s", "operators.spectral_basis_calls": "count",
        "operators.matvec_calls": "count", "operators.matvec_s": "s",
        "operators.matvec_mb_computed": "MB",
        "dynamics.apply_system_calls": "count", "dynamics.apply_system_self_s": "s",
        "dynamics.steps": "count", "dynamics.banded_solves": "count",
        "dynamics.banded_solve_s": "s", "dynamics.solve_hyperbolic_s": "s",
        "hum.synthesize_s": "s", "hum.synthesize_calls": "count",
        "hum.cg_iterations": "count", "hum.cg_self_s": "s",
        "hum.gramian_applies": "count", "hum.gramian_apply_s": "s",
        "hum.adjoint_marches": "count", "hum.adjoint_march_s": "s",
        "hum.forward_marches": "count", "hum.forward_march_s": "s",
        "hum.seed_dim": "count", "hum.applies_per_seed_dim": "ratio",
        "hum.terminal_energy_ratio": "ratio",
        "analysis.observability_s": "s", "analysis.dense_gramian_s": "s",
        "analysis.dense_gramian_columns": "count", "analysis.admissibility_s": "s",
        "analysis.dense_gramian_nproc_s": "s",
        "geometry.gcc_check_s": "s", "geometry.rays": "count",
        "geometry.ray_samples": "count", "geometry.gcc_check_nproc_s": "s",
        "cli.invocations": "count", "cli.artifact_write_s": "s",
        "cli.artifact_mb": "MB", "cli.replay_s": "s",
    })
    return units


METRIC_UNITS = _units()
