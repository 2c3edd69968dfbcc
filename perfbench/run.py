"""cairoreg benchmark: four workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fit-heavy-b256 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace 1``
every per-layer metric. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the machine and provenance facts. The package is imported from
``src/`` of the same checkout; without it the run exits with code 1 and
prints no result. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import os

# Set before numpy loads: one BLAS thread per process, so the bench pool's
# workers (forked, so they inherit it) do not oversubscribe the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cairoreg" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: package source not found at {SRC / 'cairoreg'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy.stats  # noqa: E402

from cairoreg import bench, cli, data, dgp, pipeline  # noqa: E402
from cairoreg.dgp import Scenario, ScenarioSpec  # noqa: E402
from cairoreg.isotonic import audit_autocalibration  # noqa: E402
from cairoreg.metrics import kendall, rmse  # noqa: E402
from cairoreg.pipeline import VARIANTS, CairoModel  # noqa: E402
from cairoreg.scorer import TrainConfig, forward  # noqa: E402

import spans  # noqa: E402

D = 10
TRAIN_FRACTION = 0.7
# Held-out quality comes from one fit per variant on this fixed problem
# (data and training seed), so it repeats exactly whatever --seed is: on
# heavy-tailed noise, held-out RMSE moves by more than any usable bound
# from one data draw to the next.
QUALITY_SEED = 0
# The model that `cairo predict` and `cairo eval` apply, fitted in set-up.
REFERENCE_VARIANT = "ranknet"
REFERENCE_EPOCHS = 2
AUTOCAL_TOLERANCE = 1e-9
EVAL_TOLERANCE = 1e-12
BENCH_FIELDS = ("spearman", "kendall", "rmse", "rmse_vs_true_mean")
CALIBRATION_S = 0.002


@dataclass(frozen=True)
class Workload:
    """Sizes of one round; every round fits, scores and runs a bench repetition."""

    batch_size: int  # the four timed fits
    epochs: int
    score_rows: int | None  # rows of the scored CSV; None scores the test split
    bench: dict  # BenchConfig fields of the bench repetition
    n: int = 6000  # heavy-tail dataset: 0.7 train / 0.3 test
    setups: int = 3  # set-up repeats; setup_s is their median
    min_rounds: int = 3
    probe_repeats: int = 1  # fits and bench repetitions per round


# A bench repetition small enough to be a probe. Its larger learning rate
# and smaller batches make every model learn an ordering within two epochs;
# at the defaults, one seed in six gave a constant prediction, for which
# Spearman is undefined and the repetition raises.
PROBE_BENCH = {"n": 600, "epochs": 2, "batch_size": 64, "learning_rate": 0.01}

# The main operation of each workload runs at full size; the other
# operations run on small probe inputs so that every run reports every
# end-to-end metric. Epochs are cut from the default 200 so that a run
# fits its time budget; a fit's cost per epoch does not depend on them.
WORKLOADS = {
    "fit-heavy-b256": Workload(256, 2, None, PROBE_BENCH, setups=5),
    "fit-heavy-b1024": Workload(1024, 1, None, PROBE_BENCH, setups=5),
    # Rounds here take seconds: five at least, and the probes repeat, so
    # that every metric gets enough samples.
    "score-100k": Workload(256, 1, 100_000, PROBE_BENCH, min_rounds=5, probe_repeats=3),
    "bench-rep": Workload(256, 1, None, {"n": 6000, "epochs": 2}, setups=5),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"fit_s.{v}": "s" for v in VARIANTS},
    "predict_rows_per_s": "rows/s",
    "eval_rows_per_s": "rows/s",
    "bench_rep_s": "s",
    "peak_rss_mb": "MB",
    **{f"heldout_kendall.{v}": "tau-b" for v in VARIANTS},
    **{f"heldout_rmse.{v}": "target" for v in VARIANTS if v != "nn-mse"},
}


# glibc mallopt parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLD = 1 << 30


def pin_allocator() -> dict:
    """Keep freed memory in glibc's heap: no trimming, no mmap per allocation.

    With glibc's dynamic thresholds, whether the B x B loss temporaries go
    back to the kernel after each call depends on the heap's layout. That
    varied from process to process: a ranknet fit took about 17k page
    faults in some runs and 1.5k in others, and 1.35x the time. Pinning
    both thresholds removes that mode. A fresh `cairo fit` process still
    pays those faults; losses.peak_alloc_mb tracks their size.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {"pinned": False}
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    ok = [mallopt(p, MALLOC_THRESHOLD) == 1 for p in (M_TRIM_THRESHOLD, M_MMAP_THRESHOLD)]
    return {"pinned": all(ok), "trim_and_mmap_threshold": MALLOC_THRESHOLD}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Inputs:
    train: data.Dataset
    test: data.Dataset
    score: data.Dataset
    score_csv: Path
    reference_bundle: Path
    quality_train: data.Dataset
    quality_test: data.Dataset


class Clock:
    """Op times in seconds at a fixed machine speed.

    The host this benchmark was built on changes speed by up to 1.6x in
    phases of tens of seconds. That is longer than a run, so no statistic
    over one run's samples removes it. Each op is therefore divided by a
    calibration kernel timed just before and just after it. Slow phases hit
    interpreter-bound code harder than numpy-bound code (1.6x against 1.3x
    in one set of runs), so there are two kernels: "python" parses, formats
    and hashes floats like the CSV and JSON ops, and "numpy" mixes a
    bytecode loop with in-place exp like a training loop. Neither runs
    cairoreg code, so a change to the package cannot move them. Both take
    about ``CALIBRATION_S`` on that host when it is fast, so results read
    as seconds at that speed. Raw times are kept beside them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._text = [f"{x:.17g}" for x in rng.standard_normal(2000)]
        self._a = np.linspace(-1.0, 1.0, 1 << 16).reshape(256, 256)
        self._out = np.empty_like(self._a)
        self._kernels = {"python": self._python_kernel, "numpy": self._numpy_kernel}
        self.readings: dict[str, list[float]] = {kind: [] for kind in self._kernels}
        self.last = {kind: self.reading(kind) for kind in self._kernels}

    def _python_kernel(self) -> None:
        values = [float(t) for t in self._text]
        {f"{v:.17g}": i for i, v in enumerate(values)}
        for _ in range(5):
            np.exp(self._a, out=self._out)

    def _numpy_kernel(self) -> None:
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(10):
            np.exp(self._a, out=self._out)

    def reading(self, kind: str) -> float:
        kernel, best = self._kernels[kind], float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.readings[kind].append(best)
        return best

    def normalise(self, seconds: float, kind: str) -> float:
        before = self.last[kind]
        self.last[kind] = after = self.reading(kind)
        return seconds * CALIBRATION_S / (0.5 * (before + after))


# Which calibration kernel each timed metric is divided by.
KERNEL_OF = {
    "setup_s": "python",
    **{f"fit_s.{v}": "numpy" for v in VARIANTS},
    "predict_s": "python",
    "eval_s": "python",
    "bench_rep_s": "numpy",
}


@dataclass
class RunState:
    name: str
    seed: int
    wl: Workload
    work: Path
    tracer: spans.Tracer
    clock: Clock
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)  # normalised s
    raw: dict[str, list[float]] = field(default_factory=dict)  # wall-clock s
    bundle_sha256: dict[str, str] = field(default_factory=dict)
    round_hashes: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    bench_wall_s: float = 0.0
    rounds: int = 0

    @contextlib.contextmanager
    def phase(self, name: str):
        prev, self.tracer.phase = self.tracer.phase, name
        try:
            yield
        finally:
            self.tracer.phase = prev

    @contextlib.contextmanager
    def timed(self, metric: str, phase: str):
        """Time the body as one sample of ``metric``, its layer spans under ``phase``."""
        with self.phase(phase):
            t0 = time.perf_counter()
            yield
            seconds = time.perf_counter() - t0
        self.raw.setdefault(metric, []).append(seconds)
        normalised = self.clock.normalise(seconds, KERNEL_OF[metric])
        self.samples.setdefault(metric, []).append(normalised)

    @contextlib.contextmanager
    def op(self, label: str):
        """One fit, predict, eval or bench repetition; a raise or failed check fails it."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")



def check(ok: bool, label: str) -> None:
    if not ok:
        raise AssertionError(f"check failed: {label}")


def _heavy(n: int, seed: int) -> data.Dataset:
    return dgp.generate(ScenarioSpec(Scenario.HEAVY_TAIL, n=n, d=D, seed=seed))


def _split(ds: data.Dataset, seed: int):
    return data.split(ds, data.SplitSpec(TRAIN_FRACTION, seed=seed))


def _fit(variant: str, train: data.Dataset, batch_size: int, epochs: int, seed: int):
    cfg = TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
        loss=pipeline.variant_loss_spec(variant),
    )
    return pipeline.fit_variant(variant, train, cfg)


def setup(s: RunState) -> Inputs:
    """Inputs of one run: data generation, CSV writing and the reference fit."""
    wl, work = s.wl, s.work
    train, test = _split(_heavy(wl.n, s.seed), s.seed)
    data.write_csv(test, work / "test.csv")
    reference = _fit(REFERENCE_VARIANT, train, 256, REFERENCE_EPOCHS, s.seed)
    pipeline.save_model(reference, work / "reference.json")
    if wl.score_rows is None:
        score, score_csv = test, work / "test.csv"
    else:
        # Same seed as the reference model, so the weight vector matches.
        score, score_csv = _heavy(wl.score_rows, s.seed), work / "score.csv"
        data.write_csv(score, score_csv)
    quality_train, quality_test = _split(_heavy(wl.n, QUALITY_SEED), QUALITY_SEED)
    return Inputs(
        train, test, score, score_csv, work / "reference.json", quality_train, quality_test
    )


def check_fit(s: RunState, variant: str, model, train: data.Dataset, test: data.Dataset) -> str:
    """Auto-calibration on the training set and a bitwise bundle round trip."""
    if isinstance(model, CairoModel):
        scores, _ = forward(model.scorer, model.standardizer.transform(train.features))
        report = audit_autocalibration(model.calibration, scores, train.targets)
        check(
            report.max_abs_block_residual <= AUTOCAL_TOLERANCE,
            f"{variant} auto-calibration residual {report.max_abs_block_residual:.3g}",
        )
    path = s.work / f"{variant}.json"
    pipeline.save_model(model, path)
    loaded = pipeline.load_model(path)
    check(
        pipeline.predict_model(loaded, test.features).tobytes()
        == pipeline.predict_model(model, test.features).tobytes(),
        f"{variant} bundle round trip",
    )
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quality_pass(s: RunState, inputs: Inputs) -> None:
    """Held-out Kendall and RMSE of each variant on the fixed quality problem."""
    train, test = inputs.quality_train, inputs.quality_test
    for v in VARIANTS:
        with s.op(f"quality fit {v}"):
            model = _fit(v, train, s.wl.batch_size, s.wl.epochs, QUALITY_SEED)
            s.bundle_sha256[v] = check_fit(s, v, model, train, test)
            yhat = pipeline.predict_model(model, test.features)
            s.quality[f"heldout_kendall.{v}"] = kendall(test.targets, yhat)
            if v != "nn-mse":
                s.quality[f"heldout_rmse.{v}"] = rmse(test.targets, yhat)


def expected_outputs(s: RunState, inputs: Inputs) -> None:
    """In-memory predictions and scipy's rank correlations for the scored CSV."""
    model = pipeline.load_model(inputs.reference_bundle)
    yhat = pipeline.predict_model(model, inputs.score.features)
    y = inputs.score.targets
    s.expected = {
        "predictions": yhat,
        "kendall": float(scipy.stats.kendalltau(y, yhat).statistic),
        "spearman": float(scipy.stats.spearmanr(y, yhat).statistic),
    }


def _cli(args: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"cairo {args[0]} exited {code}: {err.getvalue().strip()}")


def _read_predictions(path: Path) -> np.ndarray:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["prediction"]:
        raise AssertionError(f"unexpected predictions header {rows[0]}")
    return np.array([float(r[0]) for r in rows[1:]], dtype=np.float64)


def run_round(s: RunState, inputs: Inputs) -> None:
    wl = s.wl
    for v in [v for _ in range(wl.probe_repeats) for v in VARIANTS]:
        with s.op(f"fit {v}"):
            with s.timed(f"fit_s.{v}", "fits"):
                model = _fit(v, inputs.train, wl.batch_size, wl.epochs, s.seed)
            with s.phase("check"):
                digest = check_fit(s, v, model, inputs.train, inputs.test)
                check(s.round_hashes.setdefault(v, digest) == digest,
                      f"{v} bundle differs between rounds")

    preds_csv, report_json = s.work / "predictions.csv", s.work / "eval.json"
    with s.op("predict"):
        with s.timed("predict_s", "score"):
            _cli(["predict", "--model", str(inputs.reference_bundle),
                  "--data", str(inputs.score_csv), "--out", str(preds_csv)])
        with s.phase("check"):
            got = _read_predictions(preds_csv)
            check(got.tobytes() == s.expected["predictions"].tobytes(),
                  "predictions CSV differs from in-memory predict_model")
    with s.op("eval"):
        with s.timed("eval_s", "score"):
            _cli(["eval", "--model", str(inputs.reference_bundle),
                  "--data", str(inputs.score_csv), "--out", str(report_json)])
        with s.phase("check"):
            payload = json.loads(report_json.read_text(encoding="utf-8"))
            for key in ("kendall", "spearman"):
                gap = abs(payload[key] - s.expected[key])
                check(gap <= EVAL_TOLERANCE, f"eval {key} off scipy by {gap:.3g}")

    cfg = bench.BenchConfig(d=D, repetitions=1, base_seed=s.seed, **wl.bench)
    for _ in range(wl.probe_repeats):
        run_bench_repetition(s, cfg)


def run_bench_repetition(s: RunState, cfg: bench.BenchConfig) -> None:
    with s.op("bench repetition"):
        with s.timed("bench_rep_s", "bench"):
            result = bench.run_bench(cfg, max_workers=nproc())
        s.bench_wall_s += s.raw["bench_rep_s"][-1]
        with s.phase("bench"):
            s.tracer.collect_spool()
        with s.phase("check"):
            check(len(result.raw) == len(cfg.scenarios) * len(cfg.models),
                  f"bench gave {len(result.raw)} rows")
            values = [getattr(r.report, f) for r in result.raw for f in BENCH_FIELDS]
            check(bool(np.all(np.isfinite(values))), "non-finite bench value")


def run_rounds(s: RunState, inputs: Inputs, seconds: float, min_rounds: int) -> None:
    """Rounds until ``seconds`` are used; one that would mostly overrun is skipped."""
    start, rounds, last = time.perf_counter(), 0, 0.0
    while rounds < min_rounds or time.perf_counter() - start + last / 2 < seconds:
        s.tracer.round = rounds
        t0 = time.perf_counter()
        run_round(s, inputs)
        last = time.perf_counter() - t0
        rounds += 1
    s.rounds = rounds


def _medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {k: statistics.median(v) for k, v in samples.items()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def end_to_end_metrics(s: RunState, rows: int, rss: float) -> dict:
    med = _medians(s.samples)
    values = {
        "setup_s": med.get("setup_s"),
        **{f"fit_s.{v}": med.get(f"fit_s.{v}") for v in VARIANTS},
        "predict_rows_per_s": rows / med["predict_s"] if "predict_s" in med else None,
        "eval_rows_per_s": rows / med["eval_s"] if "eval_s" in med else None,
        "bench_rep_s": med.get("bench_rep_s"),
        "peak_rss_mb": rss,
        **s.quality,
    }
    return {k: {"value": values.get(k), "unit": u} for k, u in END_TO_END_UNITS.items()}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    wl: Workload | None = None, work_root: Path | None = None,
) -> dict:
    """Run one workload; returns the result object plus details and spans."""
    wl = wl or WORKLOADS[name]
    work_root = work_root or ROOT / ".bench_work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=work_root))
    (work / "spool").mkdir()
    s = RunState(name, seed, wl, work, spans.Tracer(work / "spool"), Clock())
    restore = None
    try:
        for _ in range(1 if trace else wl.setups):
            with s.timed("setup_s", "none"):
                inputs = setup(s)
        expected_outputs(s, inputs)
        if not trace:
            quality_pass(s, inputs)
            run_rounds(s, inputs, seconds, wl.min_rounds)
            metrics = end_to_end_metrics(s, inputs.score.n, peak_rss_mb())
        else:
            run_rounds(s, inputs, seconds / 2, 1)
            plain = _medians(s.samples)
            s.samples.clear()
            s.bench_wall_s = 0.0
            restore = spans.install(s.tracer)
            s.tracer.active = True
            with s.phase("setup"):
                setup(s)
            run_rounds(s, inputs, seconds / 2, 1)
            s.tracer.active = False
            traced = _medians(s.samples)
            workers = min(nproc(), len(bench.BenchConfig().scenarios))  # one task per scenario
            layer = spans.layer_metrics(s.tracer.spans, s.rounds, workers, s.bench_wall_s)
            ops = [k for k in traced if k != "setup_s"]
            layer["trace.overhead_frac"] = (
                sum(traced[k] for k in ops) / sum(plain[k] for k in ops) - 1.0, "frac"
            )
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(work, ignore_errors=True)
    failed = len(s.failures)
    result = {
        "correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": s.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "seed": seed,
        "rounds": s.rounds,
        "calibration_s": CALIBRATION_S,
        "calibration_median_s": _medians(s.clock.readings),
        "raw_median_s": _medians(s.raw),
        "samples_s": s.samples,
        "bundle_sha256": s.bundle_sha256,
        "failures": s.failures,
    }
    return {"result": result, "details": details, "spans": s.tracer.spans}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def provenance(seed: int) -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "cairoreg").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "l2_cache": _read(f"{cache}/index2/size"),
        "l3_cache": _read(f"{cache}/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "bench_max_workers": nproc(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    allocator = pin_allocator()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"provenance": {**provenance(args.seed), "allocator": allocator}, **out["details"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({**record, "result": out["result"]}, indent=2), encoding="utf-8"
    )
    if args.trace:
        spans.write_spans(out["spans"], out_dir / f"{stem}-spans.json")
    for failure in out["details"]["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
