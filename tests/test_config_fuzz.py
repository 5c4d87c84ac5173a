"""Config fuzz guard: every config the schema accepts runs every subcommand to
an exit code (0 pass, 2 verdict fail, 1 typed error) with nothing escaping
``cli.main``, under the suite's warnings-as-errors.

The configs are small (1D grids of 2-24 nodes, 2D grids of 2-8 per axis) and
mix both families, theta at and inside +-pi/2, zero and positive coupling
amplitudes, distributed and end controls in one system, boxes partly or
wholly outside the domain, and ``hum``/``gcc``/``analysis`` entries inside
and just outside their bounds.
"""

import json
import math
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cascade_lab.cli import main

SUBCOMMANDS = ["gcc", "check", "control", "observability", "kalman", "sweep-eps"]


@st.composite
def configs(draw):
    """A config built inside every bound, then, in about a third of the
    draws, one entry set just outside its bound."""
    dim = draw(st.sampled_from([1, 2]))
    n = [draw(st.integers(2, 24 if dim == 1 else 8)) for _ in range(dim)]
    extents = [draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(dim)]
    n_total = math.prod(n)
    if draw(st.booleans()):
        family = {"kind": "hyperbolic"}
    else:
        theta = draw(st.sampled_from([0.0, 0.6, -math.pi / 2, math.pi / 2])
                     | st.floats(-math.pi / 2, math.pi / 2))
        family = {"kind": "dissipative", "theta": theta}
    hyperbolic = family["kind"] == "hyperbolic"
    N = draw(st.integers(1, 3))
    p = draw(st.integers(0, N - 1))

    def region(amplitudes, min_width):
        # parts may stick out of the domain, and rarely lie wholly outside it
        parts = []
        for _ in range(draw(st.integers(1, 2))):
            part = []
            for L in extents:
                lo = round(draw(st.floats(-0.2, 0.95)) * L, 3)
                part.append([lo, round(lo + draw(st.floats(min_width, 0.8)) * L, 3)])
            parts.append(part)
        return {"boxes": parts, "amplitude": draw(st.sampled_from(amplitudes))}

    # a narrow coupling box may hold no grid node: a legal zero coupling
    coupling = [dict(region([1.0, 0.0, 4.0], 0.05), pair=[i, j])
                for j in range(2, N + 1) for i in range(1, j) if draw(st.booleans())]
    control = []
    for k in range(p + 1, N + 1):
        kind = draw(st.sampled_from(["distributed", "boundary", "none"] if dim == 1
                                    else ["distributed", "none"]))
        if kind == "distributed":
            control.append(dict(region([1.0, 0.5], 0.4), component=k, kind=kind))
        elif kind == "boundary":
            control.append({"component": k, "kind": kind,
                            "end": draw(st.sampled_from(["left", "right"])),
                            "gain": draw(st.sampled_from([1.0, 0.5, 0.0]))})

    K_filter = draw(st.integers(1, min(n_total, 6)))
    T = draw(st.sampled_from([0.2, 0.5, 1.0, None]))
    cfg = {
        "domain": {"extents": extents, "n": n}, "family": family, "N": N, "p": p,
        "coupling": coupling, "control": control,
        "time": {"T": T, "dt": draw(st.sampled_from([None, 0.01, 0.3]))},
        "hum": {"K_filter": K_filter,
                "eps": draw(st.sampled_from([1e-6, 1e-3] + [0.0] * hyperbolic)),
                "cg_tol": draw(st.sampled_from([1e-8, 1e-12])),
                "max_iter": draw(st.sampled_from([None, 0, 5])),
                "eps_list": [1e-2, 1e-3, 1e-4]},
        "initial": [],
        "gcc": {"n_rays": draw(st.sampled_from([None, 1, 40])),
                "T": draw(st.sampled_from([None, 1.0]))},
        "analysis": {"n_samples": draw(st.sampled_from([None, 1, 2])),
                     "levels": draw(st.sampled_from([None, [2], [3, 5], [9]])),
                     "t_grid": None if T is None else draw(st.sampled_from([None, [T]])),
                     "K": draw(st.sampled_from([None, 1, K_filter]))},
        "seed": 7,
    }
    for k in range(1, N + 1):
        mode = draw(st.integers(1, K_filter))
        if draw(st.booleans()):
            entry = {"random": {"norm": 1.0, "seed": k}}
        elif hyperbolic:
            entry = {"position_modes": [[mode, 1.0]], "velocity_modes": [[1, 0.5]]}
        else:
            entry = {"modes": [[mode, 1.0]]}
        cfg["initial"].append(dict(entry, component=k))

    flaw = draw(st.one_of(st.none(), st.none(), st.sampled_from([
        ("hum", "K_filter", n_total + 1), ("hum", "eps", 0.0 if not hyperbolic else -1e-3),
        ("hum", "cg_tol", 0.0), ("hum", "max_iter", -1), ("hum", "eps_list", [1e-2, 1e-3, 0.0]),
        ("gcc", "n_rays", 0), ("gcc", "T", 0.0), ("analysis", "n_samples", 0),
        ("analysis", "levels", [1]), ("analysis", "K", 0), ("analysis", "K", K_filter + 1),
        ("time", "T", 0.0),
    ])))
    if flaw is not None:
        section, key, value = flaw
        cfg[section][key] = value
    return cfg


@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=configs())
def test_every_accepted_config_runs_every_subcommand(tmp_path, cfg):
    work = tempfile.mkdtemp(dir=tmp_path)
    path = f"{work}/cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    for command in SUBCOMMANDS:
        out = f"{work}/{command}"
        code = main([command, "--config", path, "--out", out])
        assert code in (0, 1, 2), (command, code)
        if command == "control" and code != 1:
            assert main(["replay", out]) in (0, 1, 2)
