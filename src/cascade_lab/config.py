"""Experiment configuration: strict JSON schema, canonical hashing, assembly.

Configs are plain JSON with unknown keys rejected at every level; a silent typo
in a region bound would invalidate an experiment, so nothing is ignored.
Random initial data always comes from an explicitly seeded generator recorded
in the config itself.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .dynamics import (
    CascadeSystem,
    Dissipative,
    Hyperbolic,
    SystemState,
    cfl_time_step,
    zero_state,
)
from .geometry import build_grid, default_horizon, region_from_bounds
from .operators import (
    BoundaryEnd,
    ControlSpec,
    CouplingSpec,
    Distributed,
    assemble_operator,
    spectral_basis,
)
from .util import canonical_json, sha256_hex

_TOP_KEYS = {
    "domain", "family", "N", "p", "coupling", "control", "time", "hum",
    "initial", "gcc", "analysis", "output_dir", "seed", "indicator_taper",
}


# gcc/analysis entries that the subcommands use as counts
_INT_KEYS = {"n_rays", "n_samples", "K", "levels"}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _num(value, where, kind=float):
    """kind(value), or a ConfigError naming the entry when it is not a finite
    number (or, for ``kind=int``, not an integral one: 10.9 is refused, 10.0
    is 10). Strings and booleans are refused even where float() would take
    them, so one experiment has one spelling and one config hash."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if kind is not int:
        return x
    if not x.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value if isinstance(value, int) else int(x)


def _check_keys(obj, allowed, where):
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    _require(not unknown, f"unknown keys {sorted(unknown)} in {where}")


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def config_hash(cfg):
    """Canonical (key-order independent) content hash of a config."""
    return sha256_hex(canonical_json(cfg))


def validate_config(cfg):
    _check_keys(cfg, _TOP_KEYS, "config")
    for key in ("domain", "family", "N", "p", "initial"):
        _require(key in cfg, f"config is missing '{key}'")

    dom = cfg["domain"]
    _check_keys(dom, {"extents", "n"}, "domain")
    _require(isinstance(dom.get("extents"), list) and isinstance(dom.get("n"), list),
             "domain.extents and domain.n must be lists")
    dim = len(dom["extents"])
    _require(dim in (1, 2) and len(dom["n"]) == dim, "domain must be 1D or 2D, consistent")
    _require(all(_num(L, "domain.extents") > 0 for L in dom["extents"]),
             "domain lengths must be positive")
    _require(all(_num(m, "domain.n", int) >= 2 for m in dom["n"]), "domain needs n >= 2 per axis")

    fam = cfg["family"]
    _check_keys(fam, {"kind", "theta"}, "family")
    _require(fam.get("kind") in ("hyperbolic", "dissipative"), "family.kind invalid")
    if fam["kind"] == "dissipative":
        theta = _num(fam.get("theta", 0.0), "family.theta")
        _require(abs(theta) <= math.pi / 2 + 1e-12, "family.theta outside [-pi/2, pi/2]")
    else:
        _require("theta" not in fam, "theta is only meaningful for the dissipative family")

    N = _num(cfg["N"], "N", int)
    p = _num(cfg["p"], "p", int)
    _require(N >= 1, "N must be >= 1")
    _require(0 <= p <= N, "p must satisfy 0 <= p <= N")

    def check_boxes(boxes, where):
        _require(isinstance(boxes, list) and boxes, f"{where}.boxes must be a nonempty list")
        for part in boxes:
            _require(isinstance(part, list) and len(part) == dim,
                     f"{where}: each part needs one [lo, hi] per axis")
            for pair in part:
                _require(isinstance(pair, list) and len(pair) == 2, f"{where}: bad [lo, hi] pair")
                _require(_num(pair[0], where) < _num(pair[1], where), f"{where}: lo must be < hi")

    for entry in cfg.get("coupling", []):
        _check_keys(entry, {"pair", "boxes", "amplitude", "label"}, "coupling entry")
        pair = entry.get("pair")
        _require(isinstance(pair, list) and len(pair) == 2, "coupling.pair must be [i, j]")
        i, j = _num(pair[0], "coupling.pair", int), _num(pair[1], "coupling.pair", int)
        _require(1 <= i < j <= N, f"coupling pair ({i},{j}) must satisfy 1 <= i < j <= N")
        check_boxes(entry.get("boxes"), f"coupling ({i},{j})")
        amp = entry.get("amplitude", 1.0)
        amps = amp if isinstance(amp, list) else [amp]
        _require(all(_num(a, "coupling.amplitude") >= 0 for a in amps),
                 "coupling amplitudes must be nonnegative")

    for entry in cfg.get("control", []):
        _check_keys(entry, {"component", "kind", "boxes", "amplitude", "end", "gain", "label"},
                    "control entry")
        k = _num(entry.get("component", 0), "control.component", int)
        _require(1 <= k <= N, f"controlled component {k} outside 1..{N}")
        _require(k > p, f"controlled component {k} lies in the free block 1..{p}")
        kind = entry.get("kind")
        _require(kind in ("distributed", "boundary"), "control.kind invalid")
        if kind == "distributed":
            check_boxes(entry.get("boxes"), f"control component {k}")
            _require("end" not in entry and "gain" not in entry,
                     "distributed control takes boxes/amplitude only")
        else:
            _require(dim == 1, "boundary control is 1D only")
            _require(entry.get("end") in ("left", "right"), "boundary control needs end left|right")
            _require(_num(entry.get("gain", 1.0), "control.gain") >= 0,
                     "boundary gain must be nonnegative")
            _require("boxes" not in entry and "amplitude" not in entry,
                     "boundary control takes end/gain only")

    if "time" in cfg:
        _check_keys(cfg["time"], {"T", "dt"}, "time")
        for key in ("T", "dt"):
            v = cfg["time"].get(key)
            _require(v is None or _num(v, f"time.{key}") > 0, f"time.{key} must be positive or null")

    hum = cfg.get("hum", {})
    _check_keys(hum, {"K_filter", "eps", "cg_tol", "max_iter", "eps_list"}, "hum")
    if "K_filter" in hum:
        _require(_num(hum["K_filter"], "hum.K_filter", int) >= 1, "hum.K_filter must be >= 1")
    for key in ("eps", "cg_tol"):
        if key in hum:
            _require(_num(hum[key], f"hum.{key}") >= 0, f"hum.{key} must be nonnegative")
    if "cg_tol" in hum:
        _require(_num(hum["cg_tol"], "hum.cg_tol") > 0, "hum.cg_tol must be positive")
    if hum.get("max_iter") is not None:
        _require(_num(hum["max_iter"], "hum.max_iter", int) >= 0,
                 "hum.max_iter must be a nonnegative integer")
    if "eps_list" in hum:
        lst = hum["eps_list"]
        _require(isinstance(lst, list) and len(lst) >= 3, "hum.eps_list needs >= 3 entries")
        _require(all(_num(b, "hum.eps_list") < _num(a, "hum.eps_list")
                     for a, b in zip(lst, lst[1:])),
                 "hum.eps_list must be strictly decreasing")

    _require(isinstance(cfg["initial"], list) and cfg["initial"], "initial must be a nonempty list")
    seen = set()
    for entry in cfg["initial"]:
        _check_keys(entry, {"component", "position_modes", "velocity_modes", "modes", "random"},
                    "initial entry")
        k = _num(entry.get("component", 0), "initial.component", int)
        _require(1 <= k <= N, f"initial component {k} outside 1..{N}")
        _require(k not in seen, f"initial data for component {k} given twice")
        seen.add(k)
        has_modes = any(key in entry for key in ("position_modes", "velocity_modes", "modes"))
        _require(has_modes != ("random" in entry),
                 "initial entry needs mode lists or random, not both")
        if "random" in entry:
            _check_keys(entry["random"], {"norm", "seed"}, "initial.random")
            _require(_num(entry["random"].get("norm", 1.0), "initial.random.norm") >= 0,
                     "random norm must be >= 0")
            _require(_num(entry["random"].get("seed", 0), "initial.random.seed", int) >= 0,
                     "initial.random.seed must be a nonnegative integer")
        for key in ("position_modes", "velocity_modes", "modes"):
            pairs = entry.get(key) or []
            _require(isinstance(pairs, list) and all(isinstance(q, list) and len(q) == 2
                                                     for q in pairs),
                     f"initial.{key} must be a list of [mode, coefficient] pairs")
            for mode, coef in pairs:
                _num(mode, f"initial.{key}", int)
                _num(coef, f"initial.{key}")
        if fam["kind"] == "hyperbolic":
            _require("modes" not in entry, "hyperbolic initial data uses position/velocity_modes")
        else:
            _require("position_modes" not in entry and "velocity_modes" not in entry,
                     "dissipative initial data uses modes")

    for where, allowed in (("gcc", {"n_rays", "dt_ray", "T"}),
                           ("analysis", {"n_samples", "levels", "t_grid", "K"})):
        if where in cfg:
            _check_keys(cfg[where], allowed, where)
            for key, value in cfg[where].items():
                kind = int if key in _INT_KEYS else float
                for v in value if isinstance(value, list) else [value]:
                    if v is not None:
                        _num(v, f"{where}.{key}", kind)
    if "seed" in cfg:
        _require(_num(cfg["seed"], "seed", int) >= 0, "seed must be a nonnegative integer")
    if "indicator_taper" in cfg:
        _require(_num(cfg["indicator_taper"], "indicator_taper") >= 0,
                 "indicator_taper must be >= 0")
    return cfg


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass
class Experiment:
    """Everything a subcommand needs, assembled from one validated config."""

    cfg: dict
    grid: object
    op: object
    basis: object
    sys: CascadeSystem
    Y0: SystemState
    T: float
    dt: float
    K_filter: int
    eps: float
    cg_tol: float
    max_iter: int | None
    eps_list: list
    coupling_regions: list
    control_regions: list
    seed: int
    notes: list = field(default_factory=list)


def _region_of(entry, label):
    amp = entry.get("amplitude", 1.0)
    return region_from_bounds(entry["boxes"], amplitude=amp, label=entry.get("label", label))


def _family_of(cfg):
    fam = cfg["family"]
    if fam["kind"] == "hyperbolic":
        return Hyperbolic()
    return Dissipative(float(fam.get("theta", 0.0)))


def _resolve_times(cfg, sys, regions):
    time_cfg = cfg.get("time", {})
    T = time_cfg.get("T")
    if T is None:
        T = default_horizon(regions, sys.grid.extents)
        if T <= 0:
            raise ConfigError("cannot derive a default T without coupling/control regions")
    T = float(T)
    dt = time_cfg.get("dt")
    if dt is None:
        if sys.is_hyperbolic:
            M = max(2, int(math.ceil(T / cfl_time_step(sys))))
        else:
            M = max(100, int(math.ceil(T / 0.002)))
        dt = T / M
    else:
        dt = float(dt)
        M = int(round(T / dt))
        if M < 2 or abs(M * dt - T) > 1e-9 * max(T, 1.0):
            dt = T / max(2, int(math.ceil(T / dt)))
    return T, dt


def _initial_state(cfg, sys, K_filter):
    state = zero_state(sys)
    basis = sys.basis
    base_seed = int(cfg.get("seed", 0))
    for entry in cfg["initial"]:
        k = int(entry["component"])
        if "random" in entry:
            norm = float(entry["random"].get("norm", 1.0))
            sub = int(entry["random"].get("seed", base_seed + k))
            rng = np.random.default_rng(sub)
            if sys.is_hyperbolic:
                a = rng.standard_normal(K_filter)
                b = rng.standard_normal(K_filter)
                lam = basis.eigenvalues[:K_filter]
                scale = math.sqrt(float(lam @ a**2 + b @ b))
                if scale > 0:
                    a *= norm / scale
                    b *= norm / scale
                state.w[k - 1] = a @ basis.modes[:K_filter]
                state.wp[k - 1] = b @ basis.modes[:K_filter]
            else:
                c = rng.standard_normal(K_filter)
                if sys.state_dtype == np.complex128:
                    c = c + 1j * rng.standard_normal(K_filter)
                scale = math.sqrt(float(np.real(np.vdot(c, c))))
                if scale > 0:
                    c = c * (norm / scale)
                state.w[k - 1] = c @ basis.modes[:K_filter]
        else:
            def add_modes(target, pairs):
                for mode, coef in pairs or []:
                    mode = int(mode)
                    if not 1 <= mode <= basis.K:
                        raise ConfigError(f"mode {mode} outside the retained 1..{basis.K}")
                    target += float(coef) * basis.modes[mode - 1]
            if sys.is_hyperbolic:
                add_modes(state.w[k - 1], entry.get("position_modes"))
                add_modes(state.wp[k - 1], entry.get("velocity_modes"))
            else:
                add_modes(state.w[k - 1], entry.get("modes"))
    return state


def build_experiment(cfg):
    """Assemble grid, operator, basis, system and initial data from a config."""
    validate_config(cfg)
    grid = build_grid(cfg["domain"]["extents"], cfg["domain"]["n"])
    op = assemble_operator(grid)
    hum = cfg.get("hum", {})
    K_filter = int(hum.get("K_filter", min(20, grid.n_total)))
    if K_filter > grid.n_total:
        raise ConfigError(f"K_filter {K_filter} exceeds the {grid.n_total} grid unknowns")
    basis = spectral_basis(op, K_filter)

    N, p = int(cfg["N"]), int(cfg["p"])
    coupling_regions, control_regions = [], []
    entries = {}
    for entry in cfg.get("coupling", []):
        i, j = int(entry["pair"][0]), int(entry["pair"][1])
        region = _region_of(entry, f"O_{i}{j}").clipped(grid.extents)
        entries[(i, j)] = region
        coupling_regions.append(region)
    coupling = CouplingSpec.from_dict(N, entries)

    ctl = []
    for entry in cfg.get("control", []):
        k = int(entry["component"])
        if entry["kind"] == "distributed":
            region = _region_of(entry, f"omega_{k}").clipped(grid.extents)
            control_regions.append(region)
            ctl.append((k, Distributed(region)))
        else:
            ctl.append((k, BoundaryEnd(entry["end"], float(entry.get("gain", 1.0)))))
    control = ControlSpec(N, p, tuple(ctl))

    family = _family_of(cfg)
    sys = CascadeSystem(family, op, basis, N, p, coupling, control,
                        indicator_taper=float(cfg.get("indicator_taper", 0.0)))
    T, dt = _resolve_times(cfg, sys, coupling_regions + control_regions)
    Y0 = _initial_state(cfg, sys, K_filter)

    notes = []
    if not sys.is_hyperbolic and abs(abs(sys.theta) - math.pi / 2) < 1e-12:
        notes.append("theta at +-pi/2: outside the stated dissipative range, run as-is")

    return Experiment(
        cfg=cfg, grid=grid, op=op, basis=basis, sys=sys, Y0=Y0,
        T=T, dt=dt, K_filter=K_filter,
        eps=float(hum.get("eps", 0.0 if sys.is_hyperbolic else 1e-6)),
        cg_tol=float(hum.get("cg_tol", 1e-8)),
        max_iter=(int(hum["max_iter"]) if hum.get("max_iter") is not None else None),
        eps_list=[float(e) for e in hum.get("eps_list", [])],
        coupling_regions=coupling_regions,
        control_regions=control_regions,
        seed=int(cfg.get("seed", 0)),
        notes=notes,
    )
