"""Start-up guard: scipy is loaded only by the runs that use it.

Each case runs in a fresh interpreter, because the test process itself has
long since imported scipy.
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
import cascade_lab
from cascade_lab.cli import main
for argv, code in json.loads(sys.argv[1]):
    if main(argv) != code:
        raise SystemExit(f"{argv} did not exit {code}")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] in
                        (["scipy", "linalg"], ["scipy", "sparse"]))))
"""


def _scipy_modules_after(tmp_path, runs):
    """Run CLI invocations (name, subcommand, config, exit code) in one fresh
    interpreter and return the scipy.linalg / scipy.sparse modules it loaded.
    A ``replay`` run takes no config; its name is the run directory it replays."""
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


def test_wave_and_2d_runs_never_load_scipy_linalg_or_sparse(tmp_path):
    wave = _config("demo_wave_cascade.json", domain={"n": [60]}, hum={"K_filter": 10},
                   time={"T": 3.0})
    square = _config("strip_square.json", domain={"n": [12, 12]}, time={"T": 4.0},
                     gcc={"n_rays": 72, "T": None})
    square["coupling"][0]["boxes"] = [[[0.0, 1.0], [0.0, 0.25]], [[0.0, 0.25], [0.0, 1.0]]]
    square["control"] = [{"component": 2, "kind": "distributed", "amplitude": 1.0,
                          "boxes": [[[0.75, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.75, 1.0]]]}]
    loaded = _scipy_modules_after(tmp_path, [("wave_check", "check", wave, 0),
                                             ("wave_control", "control", wave, 0),
                                             ("wave_control", "replay", None, 0),
                                             ("square_gcc", "gcc", square, 0),
                                             ("square_check", "check", square, 0),
                                             ("square_obs", "observability", square, 0)])
    assert loaded == []


def test_heat_sweep_loads_scipy_linalg(tmp_path):
    heat = _config("demo_heat_cascade.json", domain={"n": [40]}, hum={"K_filter": 6},
                   time={"T": 0.2, "dt": 0.004})
    heat["hum"]["eps_list"] = [1e-2, 1e-3, 1e-4]
    loaded = _scipy_modules_after(tmp_path, [("heat_sweep", "sweep-eps", heat, 0)])
    assert "scipy.linalg" in loaded
