"""Run one `sigma2lab solve` in this fresh process, measured from outside.

    python3 bench/child.py --src SRC --config CFG --out DIR --mode MODE [--spans PATH]

MODE is `setup` (stop on entry to the continuation), `solve` (untraced: only
the set-up/solve split and two counters are hooked) or `trace` (spans and
tracemalloc peaks around every layer call).  The package runs through its
own CLI entry point, `sigma2lab.cli.main`; nothing under src/ is changed,
the hooks replace module attributes in this process only.  The last line
of stdout is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="directory that holds the sigma2lab package")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("setup", "solve", "trace"), required=True)
    p.add_argument("--spans", default=None, help="where trace mode writes its spans (JSON lines)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    t_import = time.perf_counter()
    import sigma2lab.cli as cli  # import time is part of set-up
    import_s = time.perf_counter() - t_import
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"sigma2lab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import hooks  # after the timed import: it only adds stdlib modules

    mode = args.mode
    tracer = hooks.Tracer(spans=mode == "trace")
    if mode == "trace":
        import tracemalloc
        tracemalloc.start()
    probe = hooks.install(cli, tracer, stop_at_solve=mode == "setup")

    argv_cli = ["solve", "--config", args.config, "--out", args.out, "--no-header"]
    t_main = time.perf_counter()
    try:
        rc = cli.main(argv_cli)
    except hooks.StopAtSolve:
        rc = 0
    t_end = time.perf_counter()
    tracer.close_root(t_end)
    if probe.solve_start is None:
        print("the solve never reached the continuation", file=sys.stderr)
        return 3

    result = {
        "rc": rc,
        "setup_s": import_s + (probe.solve_start - t_main),
        "solve_s": t_end - probe.solve_start,
        "solve_cpu_s": time.process_time() - probe.solve_cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "newton_steps": tracer.counts["newton_steps"],
        "krylov_matvecs": tracer.counts["krylov_matvecs"],
    }
    if mode == "trace":
        result["layers"] = tracer.layer_metrics(probe.solve_start)
        if args.spans:
            tracer.write_spans(Path(args.spans))
    print(json.dumps(result))
    return 0 if rc == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
