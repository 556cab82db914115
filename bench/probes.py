"""Instruments a benchmark child installs around the program's layers.

Nothing here edits the program. Each instrument replaces, for one child
process only, the names that the calling modules imported: for example
`pcparam.optimizer.total_loss_with_grad`, which the training loop looks up
at call time, or the method `Domain.sample_area` on its class. `Patches`
puts every original back.

- `StepClock` times training steps through `train`'s own `batch_callback`;
  every run uses it, since it costs one Python call per step.
- `Tracer` records a span per call into a layer (name, duration, the time
  its child spans cover) plus work counters. Only the traced run uses it.
- `AllocProbe` runs `tracemalloc` inside the loss and geometry entry points
  only. It slows allocation-heavy Python code about tenfold, so it gets a
  pass of its own, never the timed or the traced one.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pcparam.cli
import pcparam.geometry
import pcparam.io
import pcparam.losses
import pcparam.meshing
import pcparam.optimizer
from pcparam.domains import Domain
from pcparam.meshing import InverseInterpolator


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, obj, attr: str, make):
        """Set obj.attr to make(original); a name the program no longer has
        is recorded in `missing` instead of failing the run."""
        if not hasattr(obj, attr):
            self.missing.append(f"{getattr(obj, '__name__', obj)}.{attr}")
            return
        original = getattr(obj, attr)
        self._undo.append((obj, attr, original))
        setattr(obj, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)


class StepClock:
    """Timestamps of every training step, by stage."""

    def __init__(self):
        self.marks: list[tuple[int, float]] = []

    def wrap_train(self, train):
        def timed_train(*args, **kwargs):
            user_callback = kwargs.get("batch_callback")

            def on_batch(stage, epoch, batch, breakdown):
                self.marks.append((stage, time.perf_counter()))
                if user_callback is not None:
                    user_callback(stage, epoch, batch, breakdown)

            kwargs["batch_callback"] = on_batch
            return train(*args, **kwargs)

        return timed_train

    def step_seconds(self) -> dict[int, list[float]]:
        """Per stage, the gaps between consecutive steps. The first step of
        a stage has no gap of its own, so the previous stage's evaluation
        and checkpoints never count as a step."""
        out: dict[int, list[float]] = {}
        for (s0, t0), (s1, t1) in zip(self.marks, self.marks[1:]):
            if s0 == s1:
                out.setdefault(s1, []).append(t1 - t0)
        return out


class Tracer:
    """Aggregated spans: per name, calls, inclusive and self seconds; per
    (name, batch size), calls and inclusive seconds; named counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.by_size: dict[str, dict[int, list]] = {}
        self.counters: dict[str, float] = {}
        self._open: list[float] = []  # time covered by children of each open span

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def span(self, name: str, fn, size_of=None, after=None):
        """Wrap fn in a span. size_of(args) gives the batch size to file the
        call under; after(args, result) updates counters once fn returned."""
        open_spans = self._open
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                covered = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - covered
                if size_of is not None:
                    per = self.by_size.setdefault(name, {}).setdefault(size_of(args), [0, 0.0])
                    per[0] += 1
                    per[1] += dur
            if after is not None:
                after(args, result)
            return result

        return traced


def _flops(spec, n_rows: int) -> int:
    """Multiply-adds x 2 of one forward pass over n_rows inputs."""
    return 2 * n_rows * sum(fi * fo for fi, fo in spec.layer_dims)


def install_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public entry points of every layer, where its callers see them."""
    cli, opt, losses = pcparam.cli, pcparam.optimizer, pcparam.losses
    geometry, io, meshing = pcparam.geometry, pcparam.io, pcparam.meshing
    n_rows = lambda args: len(args[0])  # noqa: E731
    net_rows = lambda args: len(args[2])  # noqa: E731

    def wrap(name, targets, **kw):
        for obj, attr in targets:
            patches.replace(obj, attr, lambda original: tracer.span(name, original, **kw))

    def pairs(args, result):
        tracer.count("losses.pairs", len(args[0]) * len(args[1]))

    wrap("optimizer.train", [(cli, "train")])
    wrap("optimizer.rmsprop", [(opt, "rmsprop_step")])

    wrap("losses.total", [(opt, "total_loss_with_grad")], size_of=n_rows)
    wrap("losses.hand", [(losses, "hand_with_grad")], size_of=n_rows, after=pairs)
    wrap("losses.leg", [(losses, "leg_with_grad")], size_of=n_rows,
         after=lambda a, r: tracer.count("losses.pairs", len(a[0]) ** 2))
    for fn in ("boltzmann", "boltzmann_gradient", "boltzmann_rows", "boltzmann_rows_grad"):
        wrap("boltzmann.extrema", [(losses, fn)])

    wrap("geometry.pairwise", [(geometry, "pairwise_distances"),
                               (losses, "pairwise_distances"),
                               (opt, "pairwise_distances")])
    wrap("geometry.hausdorff", [(opt, "_chunked_hausdorff"), (cli, "_chunked_hausdorff")])
    wrap("geometry.gap", [(cli, "sampling_gap_estimate")])
    wrap("geometry.angle", [(cli, "angle_distortion"), (opt, "angle_distortion")])

    wrap("neural.forward", [(opt, "forward"), (cli, "forward")], size_of=net_rows,
         after=lambda a, r: tracer.count("neural.flops", _flops(a[0], len(a[2]))))
    # useful work of backward: its two matmuls per layer, not counting the
    # forward pass it repeats today
    wrap("neural.backward", [(opt, "backward")], size_of=net_rows,
         after=lambda a, r: tracer.count("neural.flops", 2 * _flops(a[0], len(a[2]))))

    wrap("domains.sample", [(Domain, "sample_area")],
         after=lambda a, r: tracer.count("domains.sampled_points", len(r)))

    wrap("meshing.delaunay", [(cli, "delaunay"), (meshing, "delaunay")],
         after=lambda a, r: tracer.count("meshing.delaunay_points", len(a[0])))
    wrap("meshing.param_mesh", [(meshing, "generate_param_mesh")],
         after=lambda a, r: tracer.count("meshing.param_mesh_vertices", len(r.vertices)))
    wrap("meshing.boundary", [(cli, "prune_long_faces"), (cli, "boundary_edges"),
                              (meshing, "boundary_edges")])
    wrap("meshing.reconstruct", [(cli, "reconstruct_surface")])
    wrap("meshing.interp_build", [(InverseInterpolator, "__init__")])

    def located(args, result):
        tracer.count("meshing.interp_queries", len(result[1]))
        tracer.count("meshing.interp_located", int(result[1].sum()))

    wrap("meshing.interp_query", [(InverseInterpolator, "__call__")], after=located)

    wrap("io.ckpt_write", [(cli, "save_checkpoint")],
         after=lambda a, r: tracer.count("io.ckpt_bytes", os.path.getsize(a[0])))
    wrap("io.ckpt_read", [(cli, "load_checkpoint")])
    wrap("io.cloud_io", [(io, "load_cloud"), (io, "save_cloud")])
    wrap("io.other", [(io, "load_mesh"), (io, "save_mesh"), (io, "load_table"),
                      (io, "save_table")])


class AllocProbe:
    """Peak bytes tracemalloc saw inside each probed call, kept as the
    maximum per (name, batch size)."""

    def __init__(self):
        self.peaks: dict[str, dict[int, int]] = {}

    def probe(self, name: str, fn, size_of=None):
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                per = self.peaks.setdefault(name, {})
                size = 0 if size_of is None else size_of(args)
                per[size] = max(per.get(size, 0), peak)

        return probed


def install_alloc(probe: AllocProbe, patches: Patches) -> None:
    """Probe the loss entry point of the training loop and the geometry calls."""
    cli, opt = pcparam.cli, pcparam.optimizer
    patches.replace(opt, "total_loss_with_grad",
                    lambda original: probe.probe("losses", original, lambda args: len(args[0])))
    for obj, attr in ((opt, "_chunked_hausdorff"), (cli, "_chunked_hausdorff"),
                      (cli, "sampling_gap_estimate"), (cli, "angle_distortion"),
                      (opt, "angle_distortion")):
        patches.replace(obj, attr, lambda original: probe.probe("geometry", original))
