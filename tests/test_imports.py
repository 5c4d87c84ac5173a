"""Start-up guards: the program needs numpy and the standard library, nothing else.

Each case runs in a fresh interpreter, because the test process itself has
long since imported the test tools and whatever they pull in.
"""

import json
import os
import subprocess
import sys

import cascade_lab as cl
from cascade_lab.cli import demo_configs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cl.__file__)))

SCRIPT = """
import json, sys
before = set(sys.modules)
from cascade_lab.cli import main
for argv, code in json.loads(sys.argv[1]):
    if main(argv) != code:
        raise SystemExit(f"{argv} did not exit {code}")
top = {m.split(".")[0] for m in set(sys.modules) - before
       if getattr(sys.modules[m], "__file__", None)}
print(json.dumps(sorted(top - set(sys.stdlib_module_names) - {"numpy", "cascade_lab"})))
"""


def _foreign_modules_after(tmp_path, runs):
    """Run CLI invocations (name, subcommand, config, exit code) in one fresh
    interpreter and return the top-level packages they loaded from files,
    apart from numpy, cascade_lab and the standard library. (numpy's compiled
    extensions also register file-less helper modules; those are skipped.) A
    ``replay`` run takes no config; its name is the run directory it
    replays."""
    argvs = []
    for name, command, cfg, code in runs:
        if command == "replay":
            argvs.append([[command, str(tmp_path / name)], code])
            continue
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        argvs.append([[command, "--config", str(path), "--out", str(tmp_path / name)], code])
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _config(name, **sections):
    cfg = json.loads(json.dumps(demo_configs()[name]))
    for section, values in sections.items():
        cfg[section].update(values)
    return cfg


WAVE = _config("demo_wave_cascade.json", domain={"n": [60]}, hum={"K_filter": 10},
               time={"T": 3.0})
SQUARE = _config("strip_square.json", domain={"n": [12, 12]}, time={"T": 4.0},
                 gcc={"n_rays": 72, "T": None})
SQUARE["coupling"][0]["boxes"] = [[[0.0, 1.0], [0.0, 0.25]], [[0.0, 0.25], [0.0, 1.0]]]
SQUARE["control"] = [{"component": 2, "kind": "distributed", "amplitude": 1.0,
                      "boxes": [[[0.75, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.75, 1.0]]]}]


def test_wave_and_2d_runs_never_load_scipy_linalg_or_sparse(tmp_path):
    # stricter than the name: no package beyond numpy at all
    loaded = _foreign_modules_after(tmp_path, [("wave_check", "check", WAVE, 0),
                                               ("wave_control", "control", WAVE, 0),
                                               ("wave_control", "replay", None, 0),
                                               ("square_gcc", "gcc", SQUARE, 0),
                                               ("square_check", "check", SQUARE, 0),
                                               ("square_obs", "observability", SQUARE, 0)])
    assert loaded == []


def test_heat_runs_load_no_package_beyond_numpy(tmp_path):
    heat = _config("demo_heat_cascade.json", domain={"n": [40]}, hum={"K_filter": 6},
                   time={"T": 0.2, "dt": 0.004})
    heat["hum"]["eps_list"] = [1e-2, 1e-3, 1e-4]
    # the 2D Crank-Nicolson path
    heat_square = _config("strip_square.json", family={"kind": "dissipative", "theta": 0.0},
                          domain={"n": [10, 12]}, time={"T": 0.1, "dt": 0.005})
    heat_square["coupling"] = SQUARE["coupling"]
    heat_square["control"] = SQUARE["control"]
    heat_square["initial"] = [{"component": 1, "modes": [[1, 1.0]]}]
    loaded = _foreign_modules_after(tmp_path, [("heat_sweep", "sweep-eps", heat, 0),
                                               ("heat_control", "control", heat, 0),
                                               ("heat_control", "replay", None, 0),
                                               ("heat_square", "control", heat_square, 0)])
    assert loaded == []
