"""One benchmark iteration, in a fresh process started by run.py.

    python3 bench/child.py --workload W --seed N --workdir DIR --mode MODE

Writes the workload's inputs into DIR, runs its `pcparam` commands there
one after another through `pcparam.cli.main` (what the `pcparam` script
calls), checks the outputs and prints one JSON object as its last line.
MODE is `setup` (inputs only), `plain` (timed), `trace` (spans around every
layer) or `alloc` (tracemalloc peaks inside the loss and geometry calls).
A fresh process per iteration keeps `ru_maxrss` a per-iteration peak.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import pcparam
    import pcparam.cli as cli

    if Path(pcparam.__file__).resolve().parent != ROOT / "src" / "pcparam":
        raise ImportError(f"pcparam imported from {pcparam.__file__}, not this checkout")
    import probes
    import workloads

    work = Path(args.workdir)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.setup(args.workload, args.seed, work)
    out = {"t_ready": time.monotonic()}
    if args.mode == "setup":
        shutil.rmtree(work)
        return out

    os.chdir(work)
    patches = probes.Patches()
    clock = probes.StepClock()
    patches.replace(cli, "train", clock.wrap_train)
    tracer = probe = None
    main = cli.main
    if args.mode == "trace":
        tracer = probes.Tracer()
        probes.install_spans(tracer, patches)
        main = tracer.span("cli.main", cli.main)
    elif args.mode == "alloc":
        probe = probes.AllocProbe()
        probes.install_alloc(probe, patches)

    commands = plan.alloc_commands if args.mode == "alloc" else plan.commands
    seconds, returncodes = [], []
    try:
        for argv in commands:
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                rc = -1
            seconds.append(time.perf_counter() - t0)
            returncodes.append(rc)
    finally:
        patches.undo()
    out.update(
        commands=[argv[0] for argv in commands],
        seconds=seconds,
        returncodes=returncodes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        steps=clock.step_seconds(),
        n_steps=len(clock.marks),
        missing_patch_points=patches.missing,
        context=_context(),
    )
    if args.mode != "alloc":
        checks, quality = workloads.check(plan, work, returncodes)
        out.update(checks=checks, quality=quality, digest=workloads.digest(args.workload, work))
    # JSON turns the integer stage and batch-size keys into strings
    if tracer is not None:
        out["trace"] = {"spans": tracer.spans, "by_size": tracer.by_size,
                        "counters": tracer.counters}
    if probe is not None:
        out["alloc"] = probe.peaks
    os.chdir(ROOT)
    shutil.rmtree(work)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "trace", "alloc"), required=True)
    out = run(ap.parse_args())
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
