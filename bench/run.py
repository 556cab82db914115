"""pcparam benchmark: closed-loop runs of the `pcparam` CLI, one workload at a time.

    python3 bench/run.py --workload fit3d --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against the checkout that holds this file.
Every iteration is a fresh child process (child.py) that writes the
workload's inputs from --seed and runs its commands one after another: one
client, the next command only after the previous one returned.

--trace 0 starts plain iterations until --seconds have passed, and at least
two, and reports the end-to-end metrics of BENCHMARK.json as medians.
--trace 1 runs one plain, one traced and one allocation-probe iteration and
reports the per-layer metrics, the tracing overhead and whether tracing left
the outputs bit-identical.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Details go to .bench_out/<workload>-seed<N>-trace<T>.json. Exit
status is 0 when a result was printed, non-zero when the benchmark itself
could not run (no program in this checkout, a child that crashed or timed
out).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("fit3d", "fit2d_landmark", "postfit")

# set-up samples taken in children that only write inputs; they also warm
# the file cache before the first timed iteration
SETUP_ONLY_RUNS = 8
# every run compares the output digests of at least this many iterations
MIN_ITERATIONS = 2
# the whole invocation must end well inside three minutes
DEADLINE_S = 170.0
MB = 2.0 ** 20


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    want = env.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(want), nproc) if want.isdigit() and int(want) > 0 else nproc
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def _spawn(args, mode: str, k: int, deadline: float) -> dict:
    tag = f"{args.workload}-seed{args.seed}-{mode}{k}"
    work = OUT / "work" / tag
    log_path = OUT / "logs" / f"{tag}.log"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(work), "--mode", mode]
    t_spawn = time.monotonic()
    try:
        with open(log_path, "w") as log:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                                  stderr=log, text=True,
                                  timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag}: child timed out, log in {log_path}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{tag}: child exited {proc.returncode}\n{tail}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("t_ready") - t_spawn
    out["mode"] = mode
    return out


def _failed_commands(out: dict) -> int:
    """Commands that exited non-zero, or all of them if an output check failed."""
    if not all(out.get("checks", {}).values()):
        return len(out["returncodes"])
    return sum(rc != 0 for rc in out["returncodes"])


def _steps_ms(out: dict) -> tuple[list[float], list[float]]:
    """(first-stage, final-stage) step times of a fit. A workload that trains
    nothing gives (every command, the eval command): its step is one command,
    and its full-batch pass is eval's full-matrix gap estimate."""
    steps = out["steps"]
    if steps:
        return ([1e3 * s for s in steps[min(steps, key=int)]],
                [1e3 * s for s in steps[max(steps, key=int)]])
    cmds = [1e3 * s for s in out["seconds"]]
    return cmds, [cmds[out["commands"].index("eval")]]


def _tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    fit = [(name, k) for name, k, need in (("p90", 900, 100), ("p99", 990, 1000),
                                           ("p99.9", 999, 10000)) if len(values) >= need]
    if not fit:
        return None
    name, k = fit[-1]
    return name, statistics.quantiles(values, n=1000, method="inclusive")[k - 1]


def end_to_end(iterations: list[dict], setup_samples: list[float]) -> tuple[dict, dict]:
    med = statistics.median
    first = [_steps_ms(it)[0] for it in iterations]
    final = [_steps_ms(it)[1] for it in iterations]
    metrics = {
        "wall_s": med(sum(it["seconds"]) for it in iterations),
        "setup_s": med(setup_samples),
        "peak_rss_mb": med(it["peak_rss_mb"] for it in iterations),
        "step_ms": med(med(v) for v in first),
        "full_batch_step_ms": med(med(v) for v in final),
    }
    pooled = [v for vs in first for v in vs]
    detail = {
        "iterations": len(iterations),
        "setup_samples": len(setup_samples),
        "step_samples": len(pooled),
        "step_tail_ms": _tail_percentile(pooled),
        "quality": iterations[0]["quality"],
    }
    return metrics, detail


def per_layer(plain: dict, traced: dict, alloc: dict) -> dict:
    spans = traced["trace"]["spans"]
    counters = traced["trace"]["counters"]

    def ms(name):
        return 1e3 * spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_ms(layer):
        return 1e3 * sum(r[2] for n, r in spans.items() if n.split(".")[0] == layer)

    def count(name):
        return counters.get(name, 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def peak_mb(name, largest_batch_only):
        per = {int(k): v for k, v in alloc["alloc"].get(name, {}).items()}
        if not per:
            return 0.0
        return (per[max(per)] if largest_batch_only else max(per.values())) / MB

    wall, wall_plain = sum(traced["seconds"]), sum(plain["seconds"])
    net_ms = ms("neural.forward") + ms("neural.backward")
    return {
        "cli.self_ms": self_ms("cli"),
        "optimizer.steps": traced["n_steps"],
        "optimizer.loop_self_ms": 1e3 * spans.get("optimizer.train", [0, 0.0, 0.0])[2],
        "optimizer.rmsprop_ms": ms("optimizer.rmsprop"),
        "losses.total_ms": ms("losses.total"),
        "losses.total_self_ms": self_ms("losses"),
        "losses.hand_ms": ms("losses.hand"),
        "losses.leg_ms": ms("losses.leg"),
        "losses.pairs": count("losses.pairs"),
        "losses.ns_per_pair": ratio(ms("losses.total"), count("losses.pairs"), 1e6),
        "losses.peak_alloc_mb": peak_mb("losses", largest_batch_only=True),
        "boltzmann.ms": ms("boltzmann.extrema"),
        "boltzmann.calls": calls("boltzmann.extrema"),
        "geometry.pairwise_ms": ms("geometry.pairwise"),
        "geometry.pairwise_calls": calls("geometry.pairwise"),
        "geometry.hausdorff_ms": ms("geometry.hausdorff"),
        "geometry.gap_ms": ms("geometry.gap"),
        "geometry.angle_ms": ms("geometry.angle"),
        "geometry.self_ms": self_ms("geometry"),
        "geometry.peak_alloc_mb": peak_mb("geometry", largest_batch_only=False),
        "neural.forward_ms": ms("neural.forward"),
        "neural.backward_ms": ms("neural.backward"),
        "neural.forward_calls": calls("neural.forward"),
        "neural.backward_calls": calls("neural.backward"),
        "neural.gflop_per_s": ratio(count("neural.flops"), net_ms, 1e-6),
        "domains.sample_ms": ms("domains.sample"),
        "domains.sampled_points": count("domains.sampled_points"),
        "meshing.delaunay_ms": ms("meshing.delaunay"),
        "meshing.delaunay_points": count("meshing.delaunay_points"),
        "meshing.param_mesh_ms": ms("meshing.param_mesh"),
        "meshing.param_mesh_vertices": count("meshing.param_mesh_vertices"),
        "meshing.boundary_ms": ms("meshing.boundary"),
        "meshing.interp_build_ms": ms("meshing.interp_build"),
        "meshing.interp_query_ms": ms("meshing.interp_query"),
        "meshing.interp_queries": count("meshing.interp_queries"),
        "meshing.interp_located_frac": ratio(count("meshing.interp_located"),
                                             count("meshing.interp_queries")),
        "meshing.self_ms": self_ms("meshing"),
        "io.ckpt_write_ms": ms("io.ckpt_write"),
        "io.ckpt_bytes": count("io.ckpt_bytes"),
        "io.cloud_io_ms": ms("io.cloud_io"),
        "io.self_ms": self_ms("io"),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - wall_plain,
        "trace.self_sum_s": sum(r[2] for r in spans.values()),
    }


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.splitlines()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _declared() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
            1: {m["name"]: m["unit"] for m in doc["per_layer"]}}


def run(args) -> dict:
    if not (ROOT / "src" / "pcparam" / "__init__.py").is_file():
        raise BenchError(f"no pcparam sources under {ROOT / 'src'}")
    units = _declared()[args.trace]
    for sub in ("work", "logs"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    setup_samples = []
    for k in range(SETUP_ONLY_RUNS if args.trace == 0 else 1):
        setup_samples.append(_spawn(args, "setup", k, deadline)["setup_s"])

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
              "git_commit": _git_commit()}
    checks: dict[str, bool] = {}
    if args.trace == 0:
        runs = []
        t0 = time.monotonic()
        while True:
            runs.append(_spawn(args, "plain", len(runs), deadline))
            now = time.monotonic()
            if len(runs) >= MIN_ITERATIONS and now - t0 >= args.seconds:
                break
            if now + (now - t0) / len(runs) > deadline:
                break
        setup_samples += [it["setup_s"] for it in runs]
        metrics, record["summary"] = end_to_end(runs, setup_samples)
        digests = {it["digest"] for it in runs}
        checks["same_digest_every_iteration"] = len(digests) == 1
    else:
        runs = [_spawn(args, mode, 0, deadline) for mode in ("plain", "trace", "alloc")]
        metrics = per_layer(*runs)
        checks["traced_digest_equals_plain"] = runs[0]["digest"] == runs[1]["digest"]
        checks["self_times_within_wall"] = metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
        record["trace_by_size_ms"] = {
            name: {size: [n, 1e3 * s] for size, (n, s) in per.items()}
            for name, per in runs[1]["trace"]["by_size"].items()
        }
        record["spans"] = runs[1]["trace"]["spans"]
        record["alloc_peak_bytes"] = runs[2]["alloc"]
        digests = {runs[0]["digest"], runs[1]["digest"]}
    for i, it in enumerate(runs):
        for name, ok in it.get("checks", {}).items():
            checks[f"{it['mode']}{i}:{name}"] = ok
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    attempted = sum(len(it["returncodes"]) for it in runs)
    failed = sum(_failed_commands(it) for it in runs)
    record.update(
        context=runs[0]["context"],
        digest=sorted(digests),
        checks=checks,
        missing_patch_points=sorted({m for it in runs for m in it["missing_patch_points"]}),
        iterations=[{k: it[k] for k in ("mode", "commands", "seconds", "returncodes",
                                        "peak_rss_mb", "setup_s", "steps") if k in it}
                    for it in runs],
    )
    result = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record["result"] = result
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    _report(record, result, failed / attempted)
    return result


def _report(record: dict, result: dict, failed_frac: float) -> None:
    ctx = record["context"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"nproc {record['nproc']}, python {ctx['python']}, numpy {ctx['numpy']}, "
          f"{ctx['blas']} x{ctx['blas_threads']} threads, commit {record['git_commit']}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    summary = record.get("summary")
    if summary:
        for name, value in summary["quality"].items():
            unit = "rad" if name.endswith("_rad") else "1"
            print(f"{name:32s} {value:14.6g} {unit}  (quality, not gated)")
        tail = summary["step_tail_ms"]
        print(f"# {summary['iterations']} iteration(s), {summary['setup_samples']} set-ups, "
              f"{summary['step_samples']} first-stage steps"
              + (f", step {tail[0]} {tail[1]:.4g} ms" if tail else ""))
    print(f"{'failed_frac':32s} {failed_frac:14.6g} 1")
    print(f"# digest {' '.join(record['digest'])}")
    bad = [k for k, ok in record["checks"].items() if not ok]
    print(f"# checks: {len(record['checks']) - len(bad)} passed"
          + (f", FAILED {bad}, child logs in {OUT / 'logs'}" if bad else ""))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
