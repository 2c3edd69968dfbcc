"""Per-layer tracing for the benchmark: runtime wrappers around cairoreg.

``install`` replaces public functions of the package with timing wrappers,
each at the name its caller resolves (``cli`` and ``pipeline`` bind
``forward``, ``read_numeric_csv`` and others by name at import time, so
patching only the defining module would miss those calls). It returns a
function that puts every original back. Nothing under ``src/`` changes,
and the untraced end-to-end runs never call ``install``.

A span is (name, start, end, parent, phase, round, attrs). Spans stay in
memory until the run ends. Pool workers forked by ``run_bench`` record only
their task span and hand it to the parent through a spool file.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

from cairoreg import bench, cli, data, dgp, losses, metrics, pipeline, scorer

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    phase: str
    round: int
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; inactive until ``install`` turns it on."""

    def __init__(self, spool_dir: Path) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.phase = "none"
        self.round = -1
        self.active = False
        self.pid = os.getpid()
        self.spool_dir = spool_dir

    def call(self, name, fn, args, kwargs, attrs=None, alloc=False):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.phase, self.round)
        self.spans.append(span)
        self._stack.append(idx)
        if alloc:  # traced only around this call, so other spans pay nothing
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            peak = tracemalloc.get_traced_memory()[1] if alloc else 0
            if alloc:
                tracemalloc.stop()
        extra = attrs(args, out) if attrs is not None else {}
        if alloc:
            extra["peak_alloc_bytes"] = peak
        span.attrs = extra or None
        return out

    def run_task(self, fn, args, kwargs):
        """Task span for ``bench._run_repetition``, in the parent or a worker."""
        if not self.active:
            return fn(*args, **kwargs)
        if os.getpid() == self.pid:  # serial run_bench: an ordinary span
            return self.call("bench.task", fn, args, kwargs)
        # Forked worker: keep its own layer calls untraced so the task span
        # measures the task, and hand that one span to the parent.
        self.active = False
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.active = True
        _cfg, scenario, rep = args
        path = self.spool_dir / f"task-{os.getpid()}-{scenario.value}-{rep}.json"
        path.write_text(json.dumps({"start": start, "end": end}), encoding="utf-8")
        return out

    def collect_spool(self) -> None:
        """Adopt the task spans that pool workers wrote since the last call."""
        for path in sorted(self.spool_dir.glob("task-*.json")):
            rec = json.loads(path.read_text(encoding="utf-8"))
            self.spans.append(
                Span("bench.task", rec["start"], rec["end"], -1, self.phase, self.round)
            )
            path.unlink()


_LOSS_NAMES = {pipeline.variant_loss_spec(v): v for v in pipeline.VARIANTS}


def _rows(args, out):
    return {"rows": int(out[1].shape[0])}


def _blocks(args, out):
    fitted = out.fitted
    return {"blocks": int((fitted[1:] != fitted[:-1]).sum()) + 1}


# span name -> (module, attribute) pairs where callers resolve the function
WRAPPED = {
    "scorer.forward": [(scorer, "forward"), (pipeline, "forward"), (cli, "forward")],
    "scorer.backward": [(scorer, "backward")],
    "scorer.adam": [(scorer, "adam_step")],
    "scorer.train": [(pipeline, "train")],
    "ranks.softrank": [(losses, "softrank")],
    "pipeline.standardize": [(pipeline, "fit_standardizer"), (pipeline, "apply_standardizer")],
    "pipeline.load_model": [(cli, "load_model")],
    "pipeline.predict": [(cli, "predict_model"), (bench, "predict_model")],
    "isotonic.pav_fit": [(pipeline, "pav_fit")],
    "isotonic.predict": [(pipeline, "calibration_predict"), (cli, "calibration_predict")],
    "data.read_csv": [(cli, "read_numeric_csv"), (data, "read_numeric_csv")],
    "data.write_csv": [(data, "write_csv")],
    "data.split": [(data, "split"), (bench, "split")],
    "dgp.generate": [(dgp, "generate"), (bench, "generate")],
    "metrics.kendall": [(cli, "kendall"), (bench, "kendall")],
    "metrics.spearman": [(cli, "spearman"), (bench, "spearman")],
    "metrics.rmse": [(cli, "rmse"), (bench, "rmse")],
    "ranks.rank": [(metrics, "rank")],
    "cli.predict": [(cli, "cmd_predict")],
    "cli.eval": [(cli, "cmd_eval")],
}
_ATTRS = {"data.read_csv": _rows, "isotonic.pav_fit": _blocks}


def install(tracer: Tracer):
    """Patch every wrapped name; return the function that restores them."""
    saved = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    for name, sites in WRAPPED.items():
        for module, attr in sites:
            fn = getattr(module, attr)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                return tracer.call(_name, _fn, args, kwargs, _ATTRS.get(_name))

            patch(module, attr, functools.wraps(fn)(wrapper))

    loss_fn = scorer.evaluate_loss

    @functools.wraps(loss_fn)
    def loss_wrapper(spec, y, *args, **kwargs):
        name = "losses." + _LOSS_NAMES.get(spec, "other")
        n = len(y)
        attrs = (lambda a, out: {"pairs": n * (n - 1)}) if name != "losses.nn-mse" else None
        return tracer.call(name, loss_fn, (spec, y, *args), kwargs, attrs, alloc=True)

    patch(scorer, "evaluate_loss", loss_wrapper)

    # Pickled by reference when the pool forks, so it must stay reachable
    # as cairoreg.bench._run_repetition (functools.wraps keeps the name).
    task_fn = bench._run_repetition

    @functools.wraps(task_fn)
    def task_wrapper(*args, **kwargs):
        return tracer.run_task(task_fn, args, kwargs)

    patch(bench, "_run_repetition", task_wrapper)

    def restore() -> None:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return restore


def write_spans(spans: list[Span], path: Path) -> None:
    path.write_text(json.dumps([asdict(s) for s in spans]), encoding="utf-8")


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def layer_metrics(
    spans: list[Span], rounds: int, bench_workers: int, bench_wall_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds and one setup.

    Counts and totals are per round, so they repeat exactly from run to run;
    times are medians per call unless the name says otherwise.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds

    def pick(name, phase):
        return [(i, s) for i, s in enumerate(spans) if s.name == name and s.phase == phase]

    def durs(name, phase):
        return [s.seconds for _, s in pick(name, phase)]

    def attr_values(name, phase, key):
        return [s.attrs[key] for _, s in pick(name, phase)]

    out: dict[str, tuple[float, str]] = {}
    for v in pipeline.VARIANTS:
        out[f"losses.{v}_ms"] = (1e3 * _median(durs(f"losses.{v}", "fits")), "ms")
    ranking = [f"losses.{v}" for v in pipeline.VARIANTS if v != "nn-mse"]
    pairs = sum(sum(attr_values(name, "fits", "pairs")) for name in ranking)
    out["losses.pairs"] = (pairs / rounds, "count")
    peaks = [p for name in ranking for p in attr_values(name, "fits", "peak_alloc_bytes")]
    out["losses.peak_alloc_mb"] = (max(peaks) / MB, "MB")
    loss_self = sum(
        s.seconds - child_s[i]
        for v in pipeline.VARIANTS
        for i, s in pick(f"losses.{v}", "fits")
    )
    train_s = sum(durs("scorer.train", "fits"))
    out["losses.share"] = (loss_self / train_s, "frac")
    out["ranks.softrank_ms"] = (1e3 * _median(durs("ranks.softrank", "fits")), "ms")
    out["scorer.forward_ms"] = (1e3 * _median(durs("scorer.forward", "fits")), "ms")
    out["scorer.backward_ms"] = (1e3 * _median(durs("scorer.backward", "fits")), "ms")
    out["scorer.adam_ms"] = (1e3 * _median(durs("scorer.adam", "fits")), "ms")
    out["scorer.steps"] = (len(durs("scorer.adam", "fits")) / rounds, "count")
    out["scorer.train_s"] = (train_s / rounds, "s")
    out["pipeline.standardize_ms"] = (1e3 * _median(durs("pipeline.standardize", "fits")), "ms")
    out["isotonic.pav_fit_ms"] = (1e3 * _median(durs("isotonic.pav_fit", "fits")), "ms")
    out["isotonic.blocks"] = (_median(attr_values("isotonic.pav_fit", "fits", "blocks")), "count")

    out["data.read_csv_s"] = (sum(durs("data.read_csv", "score")) / rounds, "s")
    out["data.rows_read"] = (sum(attr_values("data.read_csv", "score", "rows")) / rounds, "count")
    out["cli.predict_self_s"] = (
        _median([s.seconds - child_s[i] for i, s in pick("cli.predict", "score")]),
        "s",
    )
    out["pipeline.load_model_ms"] = (1e3 * _median(durs("pipeline.load_model", "score")), "ms")
    out["isotonic.predict_ms"] = (1e3 * _median(durs("isotonic.predict", "score")), "ms")
    out["metrics.kendall_s"] = (_median(durs("metrics.kendall", "score")), "s")
    out["metrics.spearman_s"] = (_median(durs("metrics.spearman", "score")), "s")
    out["ranks.rank_ms"] = (1e3 * _median(durs("ranks.rank", "score")), "ms")
    out["metrics.rmse_ms"] = (1e3 * _median(durs("metrics.rmse", "score")), "ms")

    out["dgp.generate_ms"] = (1e3 * _median(durs("dgp.generate", "setup")), "ms")
    out["data.split_ms"] = (1e3 * _median(durs("data.split", "setup")), "ms")
    out["data.write_csv_s"] = (sum(durs("data.write_csv", "setup")), "s")

    tasks = durs("bench.task", "bench")
    out["bench.task_s"] = (_median(tasks), "s")
    out["bench.task_max_s"] = (max(tasks), "s")
    out["bench.tasks"] = (len(tasks) / rounds, "count")
    out["bench.worker_idle_frac"] = (1.0 - sum(tasks) / (bench_workers * bench_wall_s), "frac")
    return out
