"""Command-line surface: fit, map, eval, boundary, reconstruct, sample-domain,
plot, audit.

Configuration is JSON with a fixed schema (unknown keys rejected); every
default matches the values the method was reported with. Logs go to stderr,
data products only to files. Exit codes: 0 success, 1 runtime failure (a
numeric one, or an allocation the machine refuses), 2 usage, configuration
or i/o error, or a malformed input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io as pcio
from .domains import PRESETS, Domain, load_domain, preset_domain
from .geometry import (TriangleMesh, _check_real, angle_distortion,
                       hausdorff_exact as _chunked_hausdorff, sampling_gap_estimate)
from .losses import ObjectiveConfig, audit_theorem_bound
from .meshing import boundary_edges, delaunay, prune_long_faces, reconstruct_surface
from .neural import default_lambda_spec, default_map_spec, forward, load_checkpoint, save_checkpoint
from .optimizer import RmsPropConfig, StageConfig, StageRecord, train
from .svgplot import histogram_svg, line_series_svg, scatter_svg
from .boltzmann import extremum_error_and_bound

log = logging.getLogger("pcparam")


class ConfigError(Exception):
    """Anything wrong with arguments, config files, or input paths."""


def _read(load, path):
    """load(path), the one way the commands read a file. A malformed file
    (any ValueError) is a usage error, and its message names the path."""
    try:
        return load(path)
    except ValueError as exc:
        msg = str(exc)
        raise ConfigError(msg if str(path) in msg else f"{path}: {msg}") from exc


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# the weights each mode forces to zero; every other weight must be > 0
_MODE_ZEROS = {
    "shape_matching": ("beta1", "beta3"),
    "free_boundary": ("beta2", "beta3"),
    "fixed_boundary": ("beta3",),
    "landmark": (),
}


_DEFAULTS = {
    "mode": "fixed_boundary",
    "seed": 0,
    "domain": {"preset": "square"},
    "objective": dataclasses.asdict(ObjectiveConfig()),
    "stage": dataclasses.asdict(StageConfig()),
    "optimizer": dataclasses.asdict(RmsPropConfig()),
    "domain_size": 4096,
    "eval_sample_size": 4096,
    "eval_mesh": None,
}

_TOP_KEYS = {
    "input", "output_dir", "mode", "seed", "domain", "objective", "stage",
    "optimizer", "map_net", "lambda_net", "landmarks", "domain_size",
    "eval_sample_size", "eval_mesh",
}
_NET_KEYS = {"hidden_widths", "omega"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            label = f"{where}.{key}" if where else key
            raise ConfigError(f"unknown config key {label!r}")


def _merge_section(cfg: dict, name: str) -> dict:
    given = cfg.get(name, {})
    if not isinstance(given, dict):
        raise ConfigError(f"config key {name!r} must be an object")
    _check_keys(given, set(_DEFAULTS[name]), name)
    return {**_DEFAULTS[name], **given}


def _validate_landmarks(entries) -> list[dict]:
    if not isinstance(entries, list):
        raise ConfigError("config key 'landmarks' must be a list")
    out = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"landmarks[{k}] must be an object")
        _check_keys(entry, {"rows", "target"}, f"landmarks[{k}]")
        rows = entry.get("rows")
        target = entry.get("target")
        if not (isinstance(rows, list) and rows and
                all(isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in rows)):
            raise ConfigError(f"landmarks[{k}].rows must be a non-empty list of indices")
        if not (isinstance(target, list) and target and all(
                isinstance(p, list) and len(p) == 2
                and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in p)
                for p in target)):
            raise ConfigError(f"landmarks[{k}].target must be a non-empty list of [x, y]")
        out.append({"rows": list(rows), "target": [[float(a), float(b)] for a, b in target]})
    return out


def load_run_config(path, out_dir_override=None) -> dict:
    """Parse + validate a fit config file; returns the merged dict.

    Net widths stay unresolved (they depend on the cloud dimension); use
    finalize_config for the full effective form.
    """
    text = _read(Path.read_text, Path(path))
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "")

    cfg: dict = {}
    if "input" not in raw:
        raise ConfigError("config key 'input' is required")
    for key in ("input", "output_dir"):
        if key in raw and not isinstance(raw[key], str):
            raise ConfigError(f"{key} must be a path, got {raw[key]!r}")
    cfg["input"] = raw["input"]
    out_dir = out_dir_override or raw.get("output_dir")
    if not out_dir:
        raise ConfigError("config key 'output_dir' is required (or pass --out-dir)")
    cfg["output_dir"] = str(out_dir)

    cfg["mode"] = raw.get("mode", _DEFAULTS["mode"])
    if cfg["mode"] not in _MODE_ZEROS:
        raise ConfigError(f"mode must be one of {tuple(_MODE_ZEROS)}, got {cfg['mode']!r}")
    for name, least, want in (("seed", 0, "a non-negative integer"),
                              ("domain_size", 1, "a positive integer"),
                              ("eval_sample_size", 1, "a positive integer")):
        cfg[name] = raw.get(name, _DEFAULTS[name])
        try:
            _check_real(name, cfg[name], lambda v: isinstance(v, int) and v >= least, want)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    domain = raw.get("domain", _DEFAULTS["domain"])
    if not isinstance(domain, dict):
        raise ConfigError("config key 'domain' must be an object")
    _check_keys(domain, {"preset", "file"}, "domain")
    if len(domain) != 1:
        raise ConfigError("domain needs exactly one of 'preset' or 'file'")
    if "preset" in domain and domain["preset"] not in PRESETS:
        raise ConfigError(f"domain preset must be one of {PRESETS}, got {domain['preset']!r}")
    if "file" in domain and not isinstance(domain["file"], str):
        raise ConfigError(f"domain.file must be a path, got {domain['file']!r}")
    cfg["domain"] = dict(domain)

    cfg["objective"] = _merge_section(raw, "objective")
    cfg["stage"] = _merge_section(raw, "stage")
    cfg["optimizer"] = _merge_section(raw, "optimizer")

    for name in ("map_net", "lambda_net"):
        if name in raw:
            net = raw[name]
            if not isinstance(net, dict):
                raise ConfigError(f"config key {name!r} must be an object")
            _check_keys(net, _NET_KEYS, name)  # NetworkSpec checks the values
            cfg[name] = dict(net)

    if "landmarks" in raw:
        cfg["landmarks"] = _validate_landmarks(raw["landmarks"])

    mesh = raw.get("eval_mesh", _DEFAULTS["eval_mesh"])
    if mesh is not None and not isinstance(mesh, str):
        raise ConfigError(f"eval_mesh must be a path or null, got {mesh!r}")
    cfg["eval_mesh"] = mesh
    return cfg


def finalize_config(cfg: dict, input_dim: int) -> dict:
    """Resolve net defaults for the cloud dimension and apply mode forcing;
    the result builds the run's objects (`_run_objects`) or this raises."""
    eff = json.loads(json.dumps(cfg))  # deep copy of plain JSON data
    for name, spec in (("map_net", default_map_spec(input_dim)),
                       ("lambda_net", default_lambda_spec(input_dim))):
        net = eff.setdefault(name, {})
        net.setdefault("hidden_widths", list(spec.hidden_widths))
        net.setdefault("omega", spec.omega)

    mode = eff["mode"]
    for name in _MODE_ZEROS[mode]:
        eff["objective"][name] = 0.0
    landmarks = eff.get("landmarks", [])
    if mode != "landmark" and landmarks:
        raise ConfigError(f"landmarks are only allowed in landmark mode, not {mode!r}")
    if mode == "landmark" and not landmarks:
        raise ConfigError("landmark mode needs a non-empty 'landmarks' list")
    objective = _run_objects(eff, input_dim)[0]
    for name in ("beta1", "beta2", "beta3"):
        if name not in _MODE_ZEROS[mode] and getattr(objective, name) <= 0:
            raise ConfigError(f"{mode} mode needs {name} > 0")
    return eff


def _run_objects(eff: dict, input_dim: int):
    """The objects `train` takes, built from an effective config: objective,
    stage, optimizer, map spec and lambda spec (which `train` ignores when
    beta1 = 0). A value the objects refuse is a ConfigError; one of a net
    names its section, as `map_net.omega`."""
    try:
        objective = ObjectiveConfig(**eff["objective"])
        stage = StageConfig(**eff["stage"])
        optimizer = RmsPropConfig(**eff["optimizer"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    specs = []
    for name, default in (("map_net", default_map_spec), ("lambda_net", default_lambda_spec)):
        try:
            specs.append(dataclasses.replace(default(input_dim), **eff[name]))
        except ValueError as exc:  # NetworkSpec's messages start with the field name
            raise ConfigError(f"{name}.{exc}") from exc
    return objective, stage, optimizer, *specs


def _check_numeric_flags(args) -> None:
    """Reject a numeric flag whose value is not > 0, NaN included, or a
    negative --seed, naming it."""
    for dest in ("sample_size", "bins", "h", "target_edge", "n", "trials", "sigma"):
        value = getattr(args, dest, 1)
        if not value > 0:
            raise ConfigError(f"--{dest.replace('_', '-')} must be positive, got {value}")
    seed = getattr(args, "seed", 0)
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")


def _load_domain(preset, path) -> Domain:
    """The domain in the JSON file at path, or the preset when path is None."""
    if path is None:
        return preset_domain(preset)
    return _read(load_domain, path)


def _checkpoint_output(path, cloud: np.ndarray, label: str = "checkpoint") -> np.ndarray:
    """The network of the checkpoint at path run on the cloud, once its
    input dimension is checked against the cloud's."""
    spec, params = _read(load_checkpoint, path)
    if spec.input_dim != cloud.shape[1]:
        raise ConfigError(
            f"{label} expects {spec.input_dim}-d input, cloud is {cloud.shape[1]}-d"
        )
    return forward(spec, params, cloud)


def _mesh_vertices_for(cloud: np.ndarray, path) -> TriangleMesh:
    """The mesh at path, reconciled (always 3-column as read) with a 2-d
    cloud, whose vertices must be exactly the cloud's rows."""
    mesh = _read(pcio.load_mesh, path)
    if cloud.shape[1] == 2 and (mesh.vertices[:, 2] == 0.0).all():
        mesh = TriangleMesh(mesh.vertices[:, :2].copy(), mesh.triangles)
    if not np.array_equal(mesh.vertices, cloud):
        raise ConfigError(f"{path}: mesh vertices must be exactly the input cloud")
    return mesh


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    cfg = load_run_config(args.config, out_dir_override=args.out_dir)
    cloud = _read(pcio.load_cloud, cfg["input"])
    eff = finalize_config(cfg, cloud.shape[1])
    if args.print_effective_config:
        sys.stdout.write(json.dumps(eff, indent=1, sort_keys=True) + "\n")
        return 0

    domain = _load_domain(eff["domain"].get("preset"), eff["domain"].get("file"))
    objective, stage, optimizer, map_spec, lambda_spec = _run_objects(eff, cloud.shape[1])
    landmarks = [np.array(e["rows"], dtype=np.int64) for e in eff.get("landmarks", [])]
    targets = [np.array(e["target"], dtype=np.float64) for e in eff.get("landmarks", [])]
    eval_mesh = None
    if eff["eval_mesh"] is not None:
        eval_mesh = _mesh_vertices_for(cloud, eff["eval_mesh"])

    out_dir = Path(eff["output_dir"])
    last_ckpt: dict[str, Path] = {}  # the last stage's files hold the final parameters
    rows: list[tuple] = []

    def on_stage(stage_idx, record, map_params, lambda_params):
        # made with the first files, so a fit that fails in stage 1 leaves none
        out_dir.mkdir(parents=True, exist_ok=True)
        last_ckpt["map.ckpt.json"] = out_dir / f"map_stage{stage_idx}.ckpt.json"
        save_checkpoint(last_ckpt["map.ckpt.json"], map_spec, map_params)
        if lambda_params is not None:
            last_ckpt["lambda.ckpt.json"] = out_dir / f"lambda_stage{stage_idx}.ckpt.json"
            save_checkpoint(last_ckpt["lambda.ckpt.json"], lambda_spec, lambda_params)
        # the rows so far, so a fit that fails later keeps its finished stages
        rows.append(dataclasses.astuple(record))
        pcio.save_table(out_dir / "log.csv", [f.name for f in dataclasses.fields(StageRecord)],
                        rows)
        log.info(
            "stage %d done: loss %.6g, hausdorff %.6g",
            stage_idx, record.loss_total, record.eval_hausdorff,
        )

    try:
        result = train(
            cloud,
            domain,
            objective=objective,
            stage=stage,
            optimizer=optimizer,
            map_spec=map_spec,
            lambda_spec=lambda_spec,
            landmarks=landmarks,
            targets=targets,
            seed=eff["seed"],
            domain_size=eff["domain_size"],
            eval_mesh=eval_mesh,
            eval_sample_size=eff["eval_sample_size"],
            stage_callback=on_stage,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for name, path in last_ckpt.items():
        shutil.copyfile(path, out_dir / name)
    pcio.save_cloud(out_dir / "mapped.csv", result.mapped)
    (out_dir / "effective_config.json").write_text(
        json.dumps(eff, indent=1, sort_keys=True) + "\n"
    )
    log.info("fit complete: %d stages, outputs in %s", len(result.records), out_dir)
    return 0


def cmd_map(args) -> int:
    cloud = _read(pcio.load_cloud, args.input)
    pcio.save_cloud(args.out, _checkpoint_output(args.checkpoint, cloud))
    if args.lambda_checkpoint:
        vals = _checkpoint_output(args.lambda_checkpoint, cloud, "lambda checkpoint").ravel()
        pcio.save_table(args.lambda_out, ["lambda_inv"], [[v] for v in vals])
    return 0


def cmd_eval(args) -> int:
    cloud = _read(pcio.load_cloud, args.input)
    mapped = _checkpoint_output(args.checkpoint, cloud)
    domain = _load_domain(args.domain_preset, args.domain_file or None)
    rng = np.random.default_rng(args.seed)
    dense = domain.sample_area(args.sample_size, rng)
    denser = domain.sample_area(4 * args.sample_size, rng)
    rows = [
        ["hausdorff", _chunked_hausdorff(mapped, dense)],
        ["domain_sample_gap", sampling_gap_estimate(dense, denser)],
        ["mapped_sample_gap", sampling_gap_estimate(mapped, denser)],
    ]
    if args.mesh:
        mesh = _mesh_vertices_for(cloud, args.mesh)
        report = angle_distortion(mesh, mapped, n_bins=args.bins)
        rows.append(["mean_abs_angle", report.mean_abs])
    # made once every metric is computed, so a failed eval leaves no directory
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.mesh:
        pcio.save_table(
            out_dir / "histogram.csv",
            ["bin_left", "bin_right", "count"],
            [
                [report.hist_edges[i], report.hist_edges[i + 1], int(report.hist_counts[i])]
                for i in range(len(report.hist_counts))
            ],
        )
    pcio.save_table(out_dir / "metrics.csv", ["metric", "value"], rows)
    log.info("eval metrics written to %s", out_dir / "metrics.csv")
    return 0


def cmd_boundary(args) -> int:
    if args.mapped:
        mapped = _read(pcio.load_cloud, args.mapped)
        if mapped.shape[1] != 2:
            raise ConfigError(f"mapped cloud must be 2-d, got {mapped.shape[1]}-d")
    else:
        if not (args.checkpoint and args.input):
            raise ConfigError("boundary needs --mapped or both --checkpoint and --input")
        mapped = _checkpoint_output(args.checkpoint, _read(pcio.load_cloud, args.input))

    mesh = delaunay(mapped)
    pruned = prune_long_faces(mesh, args.h)
    if len(pruned.triangles) == 0:
        raise RuntimeError(f"pruning at h={args.h} removed every face")
    loops = boundary_edges(pruned)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    polylines = []
    for li, loop in enumerate(loops):
        pts = pruned.vertices[loop]
        polylines.append(pts)
        for order, (vid, (x, y)) in enumerate(zip(loop, pts)):
            rows.append([li, order, int(vid), x, y])
    pcio.save_table(out_dir / "loops.csv", ["loop", "order", "vertex", "x", "y"], rows)
    (out_dir / "boundary.svg").write_text(scatter_svg(mapped, loops=polylines))
    log.info("%d boundary loop(s) written to %s", len(loops), out_dir)
    return 0


def cmd_reconstruct(args) -> int:
    adapted = args.mode == "lambda_adapted"
    if adapted != bool(args.lambda_checkpoint):
        raise ConfigError("--lambda-checkpoint goes with --mode lambda_adapted, and only with it")
    cloud = _read(pcio.load_cloud, args.input)
    mapped = _checkpoint_output(args.checkpoint, cloud)
    domain = _load_domain(args.domain_preset, args.domain_file or None)

    lam_vals = None
    if adapted:
        lam_vals = _checkpoint_output(args.lambda_checkpoint, cloud, "lambda checkpoint").ravel()

    result = reconstruct_surface(mapped, cloud, domain, target_edge=args.target_edge,
                                 seed=args.seed, lambda_inv_values=lam_vals)
    pcio.save_mesh(args.out, result.surface)
    if args.param_out:
        pcio.save_mesh(args.param_out, result.param)
    log.info(
        "reconstructed %d vertices / %d faces to %s",
        len(result.surface.vertices), len(result.surface.triangles), args.out,
    )
    return 0


def cmd_sample_domain(args) -> int:
    domain = _load_domain(args.domain_preset, args.domain_file or None)
    rng = np.random.default_rng(args.seed)
    if args.kind == "area":
        pts = domain.sample_area(args.n, rng)
    else:
        pts = domain.sample_boundary(args.n, rng)
    pcio.save_cloud(args.out, pts)
    return 0


def _stage_series(path) -> dict[str, list[tuple[float, float]]]:
    """Per plotted column of a `log.csv`, its (stage, value) points; rows
    with the value empty are left out. An error names the file's line."""
    header, rows = pcio.load_numbered_table(path)
    if "stage" not in header:
        raise ValueError(f"{path}: no 'stage' column")
    si = header.index("stage")
    series: dict[str, list[tuple[float, float]]] = {}
    for name in ("loss_total", "eval_hausdorff", "eval_mean_abs_angle"):
        if name not in header:
            continue
        ci = header.index(name)
        pts = series[name] = []
        for lineno, row in rows:
            if len(row) > max(si, ci) and row[ci] != "":
                try:
                    pts.append((float(row[si]), float(row[ci])))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not a numeric row: {row!r}") from None
    return series


def cmd_plot(args) -> int:
    if args.kind == "stage_lines":
        svg = line_series_svg(_read(_stage_series, args.input))
    elif args.kind == "scatter":
        data = _read(pcio.load_numeric_table, args.input)
        if data.size and data.shape[1] < 2:
            raise ConfigError(f"{args.input}: scatter needs at least 2 columns")
        svg = scatter_svg(data[:, :2] if data.size else np.empty((0, 2)))
    else:  # histogram
        data = _read(pcio.load_numeric_table, args.input)
        values = data[:, 0] if data.size else np.array([])
        counts, edges = np.histogram(values, bins=args.bins)
        svg = histogram_svg(counts, edges)
    Path(args.out).write_text(svg)
    return 0


def cmd_audit(args) -> int:
    if args.kind == "extremum":
        rng = np.random.default_rng(args.seed)
        alphas = (1.0, 2.0, 5.0, 10.0, 50.0)
        rows = []
        violations = 0
        for trial in range(args.trials):
            n = int(rng.integers(2, 65))
            scale = 10.0 ** rng.uniform(-1.0, 2.0)
            values = rng.normal(0.0, scale, n)
            for alpha in alphas:
                err_max, bound_max, err_min, bound_min = extremum_error_and_bound(
                    values, alpha
                )
                ok = err_max <= bound_max and err_min <= bound_min
                violations += 0 if ok else 1
                rows.append(
                    [trial, n, alpha, err_max, bound_max, err_min, bound_min, int(ok)]
                )
        pcio.save_table(
            args.out,
            ["trial", "n", "alpha", "err_max", "bound_max", "err_min", "bound_min", "ok"],
            rows,
        )
        log.info("%d checks, %d violations", len(rows), violations)
        if violations:
            raise RuntimeError(f"{violations} extremum bound violations (see {args.out})")
        return 0

    # distortion-bound
    for name in ("mesh", "mapped", "lambda_inv"):
        if getattr(args, name) is None:
            raise ConfigError(f"audit --kind distortion-bound needs --{name.replace('_', '-')}")
    mesh = _read(pcio.load_mesh, args.mesh)
    mapped = _read(pcio.load_cloud, args.mapped)
    data = _read(pcio.load_numeric_table, args.lambda_inv)
    if not data.size:
        raise ConfigError(f"{args.lambda_inv}: no values found")
    vals = data[:, 0]
    report = audit_theorem_bound(mesh, mapped, vals, args.sigma)
    pcio.save_table(
        args.out,
        [f.name for f in dataclasses.fields(report)],
        [dataclasses.astuple(dataclasses.replace(report, holds=int(report.holds)))],
    )
    log.info("bound %s: lhs=%.6g rhs=%.6g", "holds" if report.holds else "FAILS",
             report.lhs, report.rhs)
    if not report.holds:
        raise RuntimeError(f"distortion bound violated: lhs={report.lhs} < rhs={report.rhs}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_domain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain-preset", choices=PRESETS, default="square")
    p.add_argument("--domain-file", default=None, help="JSON domain file (overrides preset)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcparam",
        description="Point-cloud surface parametrization over small sine networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train the parametrization on a cloud")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out-dir", default=None, help="override config output_dir")
    p.add_argument("--print-effective-config", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("map", help="apply a trained checkpoint to a cloud")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda-checkpoint", default=None)
    p.add_argument("--lambda-out", default="lambda_inv.csv")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("eval", help="metrics for a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    _add_domain_args(p)
    p.add_argument("--mesh", default=None, help="reference mesh for angle distortion")
    p.add_argument("--sample-size", type=int, default=4096, dest="sample_size")
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("boundary", help="boundary loops of a mapped cloud")
    p.add_argument("--mapped", default=None, help="mapped cloud CSV")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--h", type=float, required=True, help="long-edge pruning threshold")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("reconstruct", help="lift a parameter-domain mesh to 3-d")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    _add_domain_args(p)
    p.add_argument("--mode", choices=("uniform", "lambda_adapted"), default="uniform")
    p.add_argument("--target-edge", type=float, required=True, dest="target_edge")
    p.add_argument("--lambda-checkpoint", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="surface mesh output (.obj/.off)")
    p.add_argument("--param-out", default=None, help="also write the 2-d parameter mesh")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sample-domain", help="sample a domain's area or boundary")
    _add_domain_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("area", "boundary"), default="area")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_domain)

    p = sub.add_parser("plot", help="deterministic SVG figures from CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("stage_lines", "scatter", "histogram"), required=True)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("audit", help="numeric audits of the method's inequalities")
    p.add_argument("--kind", choices=("extremum", "distortion-bound"), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mesh", default=None)
    p.add_argument("--mapped", default=None)
    p.add_argument("--lambda-inv", default=None, dest="lambda_inv")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_audit)

    return parser


def _log_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A `warnings.showwarning` that logs the message alone, as one line."""
    log.warning("warning: %s", message)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _log_warning
            _check_numeric_flags(args)
            return args.func(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        log.error("runtime failure: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
