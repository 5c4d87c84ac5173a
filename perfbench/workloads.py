"""The benchmark's workloads: seeded config generation and output checks.

Each workload is a short sequence of CLI invocations a user would type. The
program only ever sees the config files written here. Seed 0 (the default)
reproduces the canned ``demo_configs()`` inputs exactly; any other seed
replaces the initial data with seeded random filtered data of fixed norm,
generated by the program from the ``initial.random`` entries written here.

A workload is a class with a ``name``, ``invocations(work_dir, seed)``, which
writes the config and returns (label, argv) pairs, and ``checks(work_dir,
seed)``, which returns (name, passed) pairs, each counted as one operation.
Every ``--out`` points inside ``work_dir``, a temporary directory the driver
removes.

The configs are frozen copies rather than calls to ``demo_configs()``, so a
later change to the demos cannot silently change what the benchmark measures.

``chain3_single_control`` is left out on purpose: it exercises the same
hum/leapfrog code as ``wave_control``, takes about 40 s on its own, and the
Tier-1 criterion 5 test already runs it.
"""

from __future__ import annotations

import copy
import json
import os

DEFAULT_SEED = 0
RANDOM_NORM = 1.0

# demo_wave_cascade: n=200, 1340 leapfrog steps, seed dimension 120.
WAVE = {
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
    "gcc": {"n_rays": 402, "dt_ray": 0.005, "T": None},
    "output_dir": "runs/demo_wave_cascade",
    "seed": 20240501,
}

# demo_heat_cascade: five eps values, Crank-Nicolson, seed dimension 24.
HEAT = {
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

# 40x40 unit square, two L-shaped regions: the coupling region is the bottom
# and left strips, the control region the right and top strips (width 0.25).
SQUARE = {
    "domain": {"extents": [1.0, 1.0], "n": [40, 40]},
    "family": {"kind": "hyperbolic"},
    "N": 2, "p": 1,
    "coupling": [{"pair": [1, 2],
                  "boxes": [[[0.0, 1.0], [0.0, 0.25]], [[0.0, 0.25], [0.0, 1.0]]],
                  "amplitude": 1.0, "label": "bottom-left L"}],
    "control": [{"component": 2, "kind": "distributed",
                 "boxes": [[[0.75, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.75, 1.0]]],
                 "amplitude": 1.0, "label": "right-top L"}],
    "time": {"T": 4.0, "dt": None},
    "hum": {"K_filter": 8},
    "initial": [{"component": 1, "position_modes": [[1, 1.0]], "velocity_modes": []}],
    "gcc": {"n_rays": 4000, "dt_ray": 0.005, "T": None},
    "seed": 20240506,
}


def seeded_config(base, seed):
    """The base config at the default seed, else with random initial data."""
    cfg = copy.deepcopy(base)
    if seed != DEFAULT_SEED:
        cfg["initial"] = [
            {"component": e["component"],
             "random": {"norm": RANDOM_NORM, "seed": 1000 * seed + e["component"]}}
            for e in base["initial"]
        ]
    return cfg


def write_config(directory, name, cfg):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return path


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


class WaveControl:
    # The headline exact-HUM run: `control` then `replay`. Most of its work is
    # hum CG (306 Gramian applies at the default seed, each one adjoint plus
    # one forward leapfrog march), the dynamics leapfrog/apply_system path, and
    # cli artifact I/O: control writes an 8.7 MB control.csv that replay
    # parses back. Exercises the CG/Gramian mechanism that ROADMAP item 2
    # replaces.
    name = "wave_control"

    def invocations(self, work_dir, seed):
        config = write_config(work_dir, "wave.json", seeded_config(WAVE, seed))
        out = os.path.join(work_dir, "control")
        return [("control", ["control", "--config", config, "--out", out]),
                ("replay", ["replay", out])]

    def checks(self, work_dir, seed):
        report = read_report(os.path.join(work_dir, "control"))
        hum = report["hum"]
        ratio = hum["terminal_energy_filtered"] / hum["initial_energy"]
        # 1e-8 is the acceptance criterion 4 tolerance
        return [("verdict_pass", report["verdict"] == "pass"),
                ("filtered_energy_ratio", ratio <= 1e-8)]


class HeatSweep:
    # `sweep-eps` on the heat demo: the same hum synthesis layer run a second
    # way, many short CN solves sharing one operator (70 Gramian applies at
    # the default seed). Most of its time is in the dynamics Crank-Nicolson
    # banded solves (77,500 solve_banded calls, dominated by scipy's per-call
    # validation). It never touches leapfrog.
    name = "heat_sweep"

    def invocations(self, work_dir, seed):
        config = write_config(work_dir, "heat.json", seeded_config(HEAT, seed))
        out = os.path.join(work_dir, "sweep")
        return [("sweep-eps", ["sweep-eps", "--config", config, "--out", out])]

    def checks(self, work_dir, seed):
        sweep = read_report(os.path.join(work_dir, "sweep"))["sweep"]
        norms = sweep["terminal_norms"]
        checks = [("sweep_complete", not sweep["partial"]),
                  ("norms_decrease", all(b < a for a, b in zip(norms, norms[1:])))]
        # random initial data moves the slope (0.484 and 0.300 on seeds 11
        # and 12), so the canned [0.35, 0.65] window holds only at the default
        if seed == DEFAULT_SEED:
            checks.append(("slope_in_window", 0.35 <= sweep["slope"] <= 0.65))
        return checks


class SquareCertify:
    # `gcc`, `check`, `observability` on a 2D 40x40 square. With 1600 unknowns
    # spectral_basis takes the dense eigh path (4 calls, most of the run and
    # of its peak RSS); the rest is analysis (30 dense-Gramian column probes)
    # and the geometry ray tracer (7744 rays). There is no CG at all: the
    # workload on which the hum synthesis mechanism is bypassed.
    name = "square_certify"

    def invocations(self, work_dir, seed):
        config = write_config(work_dir, "square.json", seeded_config(SQUARE, seed))
        return [(cmd, [cmd, "--config", config, "--out", os.path.join(work_dir, cmd)])
                for cmd in ("gcc", "check", "observability")]

    def checks(self, work_dir, seed):
        gcc = read_report(os.path.join(work_dir, "gcc"))["gcc"]
        check = read_report(os.path.join(work_dir, "check"))
        obs = read_report(os.path.join(work_dir, "observability"))["observability"][-1]
        return [("gcc_both_regions_pass",
                 len(gcc) == 2 and all(r["verdict"] == "pass" for r in gcc)),
                ("check_pass", check["verdict"] == "pass"),
                ("c1_positive", (obs.get("c1_est") or 0.0) > 0.0),
                ("c2_positive", (obs.get("c2_est") or 0.0) > 0.0)]


WORKLOADS = {w.name: w for w in (WaveControl(), HeatSweep(), SquareCertify())}
