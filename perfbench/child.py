"""One CLI invocation in a fresh interpreter, as a user would run it.

Usage: python3 perfbench/child.py MODE RECORD_JSON CLI_ARGS...

MODE is one of
  run    run the invocation; record when build_experiment first returned;
  setup  stop right after build_experiment first returns (set-up probe);
  trace  as run, with the span tracer installed around the program.

The package is imported from ``src/`` of the checkout this file sits in. The
record (timestamps on the system-wide monotonic clock, versions and, when
tracing, the spans) is written to RECORD_JSON when the invocation ends.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class SetupDone(BaseException):
    """Raised from the set-up probe once build_experiment has returned.

    A BaseException, so that no error handler in the CLI can swallow it.
    """


def main(argv):
    mode, record_path, cli_args = argv[1], argv[2], argv[3:]
    record = {"mode": mode}
    t_import = time.monotonic()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cascade_lab import cli

    record["import_s"] = time.monotonic() - t_import
    record["module"] = cli.__file__

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(len(os.sched_getaffinity(0)))
        tracer.install()

    build = cli.build_experiment

    def stamped_build(cfg):
        exp = build(cfg)
        record.setdefault("built_at", time.monotonic())
        if mode == "setup":
            raise SetupDone
        return exp

    cli.build_experiment = stamped_build
    code = 1
    try:
        if tracer is not None:
            code = tracer.root(cli.main, cli_args)
        else:
            code = cli.main(cli_args)
    except SetupDone:
        code = 0
    finally:
        import numpy
        import scipy

        record["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
        if tracer is not None:
            record["trace"] = tracer.dump()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
