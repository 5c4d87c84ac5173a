"""Experiment configuration: strict JSON schema, canonical hashing, assembly.

Configs are plain JSON with unknown keys rejected at every level; a silent typo
in a region bound would invalidate an experiment, so nothing is ignored.
``build_experiment`` is the one pass over a config: it checks each entry where
it converts it. Random initial data always comes from an explicitly seeded
generator recorded in the config itself.
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
    step_count,
    zero_state,
)
from .geometry import Support, build_grid, default_horizon, region_from_bounds
from .operators import BoundaryEnd, EllipticOperator, spectral_basis
from .util import canonical_json, sha256_hex

_TOP_KEYS = {
    "domain", "family", "N", "p", "coupling", "control", "time", "hum",
    "initial", "gcc", "analysis", "output_dir", "seed",
}


# sections read only by the subcommands that use them: key -> (kind, bound).
# [kind] is a nonempty list of that kind; an int entry must be >= its bound, a
# float entry > its bound. gcc.dt_ray is accepted for older configs and ignored
# (the GCC check is exact). An admissibility level is the number of nodes per
# axis, at least 2 like domain.n. analysis.t_grid is checked against dt and
# analysis.K against K_filter once those are known.
_SECTION_KEYS = {
    "gcc": {"n_rays": (int, 1), "dt_ray": (float, None), "T": (float, 0)},
    "analysis": {"n_samples": (int, 1), "levels": ([int], 2), "t_grid": ([float], 0),
                 "K": (int, 1)},
}


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
    """The parsed JSON of a config file; ``build_experiment`` checks it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc


def config_hash(cfg):
    """Canonical (key-order independent) content hash of a config."""
    return sha256_hex(canonical_json(cfg))


@dataclass
class Experiment:
    """Everything a subcommand needs, assembled from one checked config;
    ``gcc`` and ``analysis`` hold the non-null entries of those sections."""

    cfg: dict
    grid: object
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
    gcc: dict
    analysis: dict
    notes: list = field(default_factory=list)


def _region(entry, where, label, grid):
    """The region of a coupling or distributed-control entry, clipped to the
    domain, after checking its boxes and amplitudes."""
    boxes = entry.get("boxes")
    _require(isinstance(boxes, list) and boxes, f"{where}.boxes must be a nonempty list")
    for part in boxes:
        _require(isinstance(part, list) and len(part) == grid.dim,
                 f"{where}: each part needs one [lo, hi] per axis")
        for pair in part:
            _require(isinstance(pair, list) and len(pair) == 2, f"{where}: bad [lo, hi] pair")
            _require(_num(pair[0], where) < _num(pair[1], where), f"{where}: lo must be < hi")
    section = where.split()[0]  # "coupling" or "control"
    amp = entry.get("amplitude", 1.0)
    amps = amp if isinstance(amp, list) else [amp]
    _require(not isinstance(amp, list) or len(amp) == len(boxes),
             f"{section}.amplitude needs one value per box")
    _require(all(_num(a, f"{section}.amplitude") >= 0 for a in amps),
             f"{section} amplitudes must be nonnegative")
    region = region_from_bounds(boxes, amplitude=amp, label=entry.get("label", label))
    try:
        return region.clipped(grid.extents)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _section(values, where):
    """The non-null entries of a gcc/analysis section, checked by ``_SECTION_KEYS``."""
    keys = _SECTION_KEYS[where]
    _check_keys(values, keys, where)
    out = {}
    for key, value in values.items():
        if value is None:
            continue
        name, (kind, bound) = f"{where}.{key}", keys[key]
        many = isinstance(kind, list)
        if many:
            _require(isinstance(value, list) and value, f"{name} must be a nonempty list")
            kind = kind[0]
        nums = [_num(v, name, kind) for v in (value if many else [value])]
        ok = bound is None or (min(nums) >= bound if kind is int else min(nums) > bound)
        _require(ok, f"{name} must be {'>=' if kind is int else '>'} {bound}")
        out[key] = nums if many else nums[0]
    return out


def _initial_entries(entries, N, hyperbolic, base_seed):
    """The checked initial entries as (component, (norm, seed) or None,
    [(field name, mode, coefficient)])."""
    _require(isinstance(entries, list) and entries, "initial must be a nonempty list")
    out, seen = [], set()
    for entry in entries:
        _check_keys(entry, {"component", "position_modes", "velocity_modes", "modes", "random"},
                    "initial entry")
        k = _num(entry.get("component", 0), "initial.component", int)
        _require(1 <= k <= N, f"initial component {k} outside 1..{N}")
        _require(k not in seen, f"initial data for component {k} given twice")
        seen.add(k)
        has_modes = any(key in entry for key in ("position_modes", "velocity_modes", "modes"))
        _require(has_modes != ("random" in entry),
                 "initial entry needs mode lists or random, not both")
        random = None
        if "random" in entry:
            rnd = entry["random"]
            _check_keys(rnd, {"norm", "seed"}, "initial.random")
            norm = _num(rnd.get("norm", 1.0), "initial.random.norm")
            _require(norm >= 0, "random norm must be >= 0")
            seed = _num(rnd.get("seed", 0), "initial.random.seed", int)
            _require(seed >= 0, "initial.random.seed must be a nonnegative integer")
            random = (norm, seed if "seed" in rnd else base_seed + k)
        terms = []
        for key in ("position_modes", "velocity_modes", "modes"):
            pairs = entry.get(key) or []
            _require(isinstance(pairs, list) and all(isinstance(q, list) and len(q) == 2
                                                     for q in pairs),
                     f"initial.{key} must be a list of [mode, coefficient] pairs")
            terms += [("wp" if key == "velocity_modes" else "w", _num(mode, f"initial.{key}", int),
                       _num(coef, f"initial.{key}")) for mode, coef in pairs]
        if hyperbolic:
            _require("modes" not in entry, "hyperbolic initial data uses position/velocity_modes")
        else:
            _require("position_modes" not in entry and "velocity_modes" not in entry,
                     "dissipative initial data uses modes")
        out.append((k, random, terms))
    return out


def _initial_state(sys, entries):
    state = zero_state(sys)
    basis = sys.basis
    K_filter = basis.K
    for k, random, terms in entries:
        if random is not None:
            norm, sub = random
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
        for name, mode, coef in terms:
            if not 1 <= mode <= basis.K:
                raise ConfigError(f"mode {mode} outside the retained 1..{basis.K}")
            getattr(state, name)[k - 1] += coef * basis.modes[mode - 1]
    return state


def build_experiment(cfg):
    """Check a config and assemble grid, operator, basis, system and initial
    data from it, in one pass over the config."""
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
    grid = build_grid(dom["extents"], dom["n"])

    fam = cfg["family"]
    _check_keys(fam, {"kind", "theta"}, "family")
    _require(fam.get("kind") in ("hyperbolic", "dissipative"), "family.kind invalid")
    hyperbolic = fam["kind"] == "hyperbolic"
    if hyperbolic:
        _require("theta" not in fam, "theta is only meaningful for the dissipative family")
        family = Hyperbolic()
    else:
        theta = _num(fam.get("theta", 0.0), "family.theta")
        _require(abs(theta) <= math.pi / 2 + 1e-12, "family.theta outside [-pi/2, pi/2]")
        family = Dissipative(theta)

    N = _num(cfg["N"], "N", int)
    # p is a check only: components 1..p (the free block) carry no control
    p = _num(cfg["p"], "p", int)
    _require(N >= 1, "N must be >= 1")
    _require(0 <= p <= N, "p must satisfy 0 <= p <= N")

    couplings = {}
    for entry in cfg.get("coupling", []):
        _check_keys(entry, {"pair", "boxes", "amplitude", "label"}, "coupling entry")
        pair = entry.get("pair")
        _require(isinstance(pair, list) and len(pair) == 2, "coupling.pair must be [i, j]")
        i, j = _num(pair[0], "coupling.pair", int), _num(pair[1], "coupling.pair", int)
        _require(1 <= i < j <= N, f"coupling pair ({i},{j}) must satisfy 1 <= i < j <= N")
        _require((i, j) not in couplings, f"coupling pair ({i},{j}) given twice")
        couplings[i, j] = _region(entry, f"coupling ({i},{j})", f"O_{i}{j}", grid)

    controls, control_regions = {}, []
    for entry in cfg.get("control", []):
        _check_keys(entry, {"component", "kind", "boxes", "amplitude", "end", "gain", "label"},
                    "control entry")
        k = _num(entry.get("component", 0), "control.component", int)
        _require(1 <= k <= N, f"controlled component {k} outside 1..{N}")
        _require(k > p, f"controlled component {k} lies in the free block 1..{p}")
        _require(k not in controls, f"controlled component {k} given twice")
        kind = entry.get("kind")
        _require(kind in ("distributed", "boundary"), "control.kind invalid")
        if kind == "distributed":
            region = _region(entry, f"control component {k}", f"omega_{k}", grid)
            _require("end" not in entry and "gain" not in entry,
                     "distributed control takes boxes/amplitude only")
            control_regions.append(region)
            controls[k] = region
        else:
            _require(dim == 1, "boundary control is 1D only")
            _require(entry.get("end") in ("left", "right"), "boundary control needs end left|right")
            gain = _num(entry.get("gain", 1.0), "control.gain")
            _require(gain >= 0, "boundary gain must be nonnegative")
            _require("boxes" not in entry and "amplitude" not in entry,
                     "boundary control takes end/gain only")
            controls[k] = BoundaryEnd(entry["end"], gain)

    time_cfg = cfg.get("time", {})
    _check_keys(time_cfg, {"T", "dt"}, "time")
    times = []
    for key in ("T", "dt"):
        v = time_cfg.get(key)
        v = None if v is None else _num(v, f"time.{key}")
        _require(v is None or v > 0, f"time.{key} must be positive or null")
        times.append(v)
    T, dt = times

    hum = cfg.get("hum", {})
    _check_keys(hum, {"K_filter", "eps", "cg_tol", "max_iter", "eps_list"}, "hum")

    def hum_value(key, default, kind=float):
        return _num(hum[key], f"hum.{key}", kind) if key in hum else default

    K_filter = hum_value("K_filter", min(20, grid.n_total), int)
    _require(K_filter >= 1, "hum.K_filter must be >= 1")
    eps = hum_value("eps", 0.0 if hyperbolic else 1e-6)
    _require(eps >= 0, "hum.eps must be nonnegative")
    _require(hyperbolic or eps > 0, "hum.eps must be > 0 for the first-order family "
                                    "(penalized HUM)")
    cg_tol = hum_value("cg_tol", 1e-8)
    _require(cg_tol > 0, "hum.cg_tol must be positive")
    max_iter = None if hum.get("max_iter") is None else hum_value("max_iter", None, int)
    _require(max_iter is None or max_iter >= 0, "hum.max_iter must be a nonnegative integer")
    eps_list = hum.get("eps_list", [])
    if "eps_list" in hum:
        _require(isinstance(eps_list, list) and len(eps_list) >= 3,
                 "hum.eps_list needs >= 3 entries")
        eps_list = [_num(e, "hum.eps_list") for e in eps_list]
        _require(min(eps_list) > 0, "hum.eps_list entries must be > 0: the sweep fits log eps")
        _require(all(b < a for a, b in zip(eps_list, eps_list[1:])),
                 "hum.eps_list must be strictly decreasing")

    seed = _num(cfg.get("seed", 0), "seed", int)
    _require(seed >= 0, "seed must be a nonnegative integer")
    initial = _initial_entries(cfg["initial"], N, hyperbolic, seed)
    sections = {where: _section(cfg.get(where, {}), where) for where in _SECTION_KEYS}
    out_dir = cfg.get("output_dir")
    _require(out_dir is None or isinstance(out_dir, str), "output_dir must be a string or null")

    # every entry is checked; what follows fails only on the assembled experiment
    if K_filter > grid.n_total:
        raise ConfigError(f"K_filter {K_filter} exceeds the {grid.n_total} grid unknowns")
    op = EllipticOperator(grid)
    basis = spectral_basis(op, K_filter)
    coupling_regions = list(couplings.values())
    # apply_system adds the couplings of one equation in this order
    sys = CascadeSystem(family, op, basis, N, tuple(sorted(couplings.items())),
                        tuple(controls.items()))
    # an empty coupling support is a legal zero coupling; an empty control
    # support controls nothing
    for k, ctl in sys.controls.items():
        if isinstance(ctl, Support) and ctl.size == 0:
            raise ConfigError(f"control component {k}: the region has no grid node "
                              "with positive amplitude (empty support)")

    if T is None:
        T = default_horizon(coupling_regions + control_regions, grid.extents)
        if T <= 0:
            raise ConfigError("cannot derive a default T without coupling/control regions")
    if dt is None:
        if hyperbolic:
            M = max(2, int(math.ceil(T / cfl_time_step(sys))))
        else:
            M = max(100, int(math.ceil(T / 0.002)))
        dt = T / M
    else:
        try:
            step_count(T, dt)
        except ValueError:
            dt = T / max(2, int(math.ceil(T / dt)))
    for t in sections["analysis"].get("t_grid", []):
        try:
            step_count(t, dt)
        except ValueError as exc:
            raise ConfigError(f"analysis.t_grid: {exc}") from None
    K = sections["analysis"].get("K", 1)
    _require(K <= K_filter, f"analysis.K {K} exceeds K_filter {K_filter}")
    Y0 = _initial_state(sys, initial)

    notes = [f"coupling ({i},{j}): no grid node has positive amplitude, so the coupling is zero"
             for (i, j), sup in sys.coupling_supports if sup.size == 0]
    if "dt_ray" in cfg.get("gcc", {}):
        notes.append("gcc.dt_ray is ignored: the GCC check is exact")
    if not hyperbolic and abs(abs(sys.theta) - math.pi / 2) < 1e-12:
        notes.append("theta at +-pi/2: outside the stated dissipative range, run as-is")

    return Experiment(
        cfg=cfg, grid=grid, basis=basis, sys=sys, Y0=Y0,
        T=T, dt=dt, K_filter=K_filter, eps=eps, cg_tol=cg_tol, max_iter=max_iter,
        eps_list=eps_list, coupling_regions=coupling_regions,
        control_regions=control_regions, seed=seed,
        gcc=sections["gcc"], analysis=sections["analysis"], notes=notes,
    )
