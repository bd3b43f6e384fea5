#!/usr/bin/env python3
"""Run one cmil benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eval-pca --seed 1 --seconds 20 --trace 0

A workload first builds its fixture once, in a child process so that the
measured process never trains (the eval workloads train the model they
serve).  Set-up (generating the inputs, loading the checkpoint) then runs
SETUP_ROUNDS times from scratch, followed by one warm-up op; setup_s is the
median round plus the warm-up.  Then one client runs ops back to back
(closed loop) for ``--seconds``.  Every op's output is checked; a failed
check or an exception counts as a failed op.  op_ms and setup_s are scaled
to a reference host speed (see ``_speed``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with span recorders installed, prints the per-layer
metrics and writes the spans to ``.perfbench/traces/``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Workload names and metric units come from ``BENCHMARK.json``.
"""

import os

# One BLAS/OpenMP thread; must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Timed cold set-up rounds per run; setup_s is their median plus the warm-up.
SETUP_ROUNDS = 3

MB = 2**20
WARMUP = "warmup"


# -- environment ----------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cmil").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- host speed -------------------------------------------------------------------

# On a shared machine the host's speed drifts by up to half for minutes at a
# time, which moved the median op time of whole runs by 20-35%.  A fixed
# kernel, timed before and after each set-up step and before each op, tracks
# that drift.  The run's speed is the median of those samples (one sample
# jitters by about 13%), and op_ms and setup_s are reported at the speed at
# which the kernel takes KERNEL_REF_S, about its time on a 2-vCPU Xeon VM.
# The raw times are printed beside them.  Like cmil's ops the kernel mixes
# BLAS matmuls with elementwise passes; it allocates nothing, so it does not
# move peak_rss_mb.
KERNEL_REF_S = 0.035
_KA = np.random.default_rng(0).standard_normal((300, 300))
_KA_OUT = np.empty_like(_KA)
_KX = np.random.default_rng(1).standard_normal((500, 500))
_KX_OUT = np.empty_like(_KX)


def _speed() -> float:
    """KERNEL_REF_S over the kernel's time now: above 1 on a faster host."""
    t0 = time.perf_counter()
    for _ in range(20):
        np.matmul(_KA, _KA, out=_KA_OUT)
        np.exp(_KX, out=_KX_OUT)
        np.multiply(_KX_OUT, _KX, out=_KX_OUT)
    return KERNEL_REF_S / (time.perf_counter() - t0)


def _timed(fn, speeds: list):
    """(result, seconds) of one call; appends a speed sample before and after it."""
    speeds.append(_speed())
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    speeds.append(_speed())
    return out, dt


# -- measurement ------------------------------------------------------------------


class Op(NamedTuple):
    id: str
    seconds: float      # raw wall time
    speed: float        # _speed() just before the op
    units: int          # steps (train-default) or 1
    problems: list


def _measure(wl, state, seconds: float, tracer, first: int) -> dict:
    """Closed loop, one client: run ops back to back until `seconds` have passed."""
    ops = []
    deadline = time.perf_counter() + seconds
    i = first
    while not ops or time.perf_counter() < deadline:
        op_id = f"op{i}"
        speed = _speed()
        if tracer is not None:
            tracer.op = op_id
            root = tracer.begin(spans.OP_ROOT)
        t0 = time.perf_counter()
        try:
            out, units = wl.op(state, i)
            problems = None
        except Exception as exc:  # a failing op is counted, the loop goes on
            out, units, problems = None, 1, [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
        if problems is None:
            problems = wl.check(state, out)
        ops.append(Op(op_id, dt, speed, units, problems))
        del out
        i += 1
    return {"ops": ops, "next": i}


def _layer_metrics(tracer, traced, untraced, setup_ops) -> dict:
    ops = [op.id for op in traced["ops"]]
    units = sum(op.units for op in traced["ops"])
    totals = spans.layer_totals(tracer.spans, ops)
    counts: dict = {}
    for op in ops:
        for key, value in tracer.counts.get(op, {}).items():
            counts[key] = counts.get(key, 0) + value
    peak_bytes = tracer.counts.get(WARMUP, {}).get("metrics.silhouette_peak_bytes", 0)

    def ms(layer):
        return totals.get(layer, 0) / 1e6 / units

    def per_setup(layer):
        return statistics.median([spans.layer_totals(tracer.spans, [op]).get(layer, 0)
                             for op in setup_ops])

    read_ns = totals.get("bagio.read_bag", 0)
    image_ns = totals.get("image_branch.forward", 0)
    traced_ms = sum(op.seconds for op in traced["ops"]) * 1e3 / units
    untraced_ms = (sum(op.seconds for op in untraced["ops"]) * 1e3
                   / sum(op.units for op in untraced["ops"]))
    m = {
        "bagio.read_bag_ms": ms("bagio.read_bag"),
        "bagio.read_mb_per_s": counts.get("bagio.bytes", 0) / MB / (read_ns / 1e9) if read_ns else 0.0,
        "projection.project_ms": ms("projection.project"),
        "image_branch.forward_ms": ms("image_branch.forward"),
        "image_branch.gflop_per_s": counts.get("image_branch.flops", 0) / image_ns if image_ns else 0.0,
        "topk.select_ms": ms("topk.select"),
        "topk.gather_ms": ms("topk.gather"),
        "concept_branch.forward_ms": ms("concept_branch.forward"),
        "concept_branch.degenerate_count": counts.get("concept_branch.degenerate", 0) / units,
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.tape_nodes": counts.get("autodiff.tape_nodes", 0) / units,
        "trainer.loss_ms": ms("trainer.loss"),
        "trainer.adamw_ms": ms("trainer.adamw"),
        "trainer.validation_ms": ms("trainer.validation"),
        "trainer.train_self_ms": ms("trainer.train"),
        "trainer.predict_ms": ms("trainer.predict"),
        "trainer.load_checkpoint_ms": per_setup("trainer.load_checkpoint") / 1e6,
        "metrics.silhouette_ms": ms("metrics.silhouette"),
        "metrics.silhouette_peak_mb": peak_bytes / MB,
        "metrics.jsd_ms": ms("metrics.jsd"),
        "embed2d.project_2d_ms": ms("embed2d.project_2d"),
        "embed2d.calibrate_ms": ms("embed2d.calibrate"),
        "embed2d.q_matrix_calls": counts.get("embed2d.q_matrix_calls", 0) / units,
        "explain.global_self_ms": ms("explain.global"),
        "evaluation.self_ms": ms("evaluation"),
        "render.global_report_ms": ms("render.global_report"),
        "synthgen.gen_s": per_setup("synthgen.gen") / 1e9,
        "bench.op_self_ms": ms(spans.OP_ROOT),
        "trace.op_ms": traced_ms,
        "trace.untraced_op_ms": untraced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
    }
    return m, sum(totals.values()) / 1e6 / units


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None) -> tuple:
    """Run one workload; returns (result dict, report lines, tracer or None).

    ``scale`` is a ``workloads.Scale``; the default is ``workloads.FULL``.
    """
    import workloads

    wl = workloads.WORKLOADS[workload]
    sc = scale or workloads.FULL
    tracer = spans.Tracer() if trace else None
    work_root = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    lines = []
    try:
        # Training the fixture's model would set a floor under peak_rss_mb, so
        # it runs in a child process; the context manager waits for its exit.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            fixture = pool.submit(wl.fixture, seed, sc, work_root / "fixture").result()
        if tracer is not None:
            tracer.install()
        setup_times, setup_ops, speeds = [], [], []
        state = None
        for r in range(SETUP_ROUNDS):
            work = work_root / f"setup{r}"
            if state is not None:  # free the last round's bags before making new ones
                state = None
                shutil.rmtree(work_root / f"setup{r - 1}")
            if tracer is not None:
                tracer.op = f"setup{r}"
                setup_ops.append(tracer.op)
            state, dt = _timed(lambda: wl.setup(fixture, seed, sc, work), speeds)
            setup_times.append(dt)
        setup_rss_mb = _peak_rss_mb()
        if tracer is not None:
            tracer.op = WARMUP
            tracer.measure_memory = True
        warm_problems, warm_s = _timed(lambda: wl.warm_up(state), speeds)
        if tracer is not None:
            tracer.measure_memory = False

        if tracer is None:
            measured = [_measure(wl, state, seconds, None, 0)]
        else:
            tracer.uninstall()
            untraced = _measure(wl, state, seconds / 2, None, 0)
            tracer.install()
            traced = _measure(wl, state, seconds / 2, tracer, untraced["next"])
            measured = [untraced, traced]
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)

    ops = [op for phase in measured for op in phase["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op.problems)
    problems = sorted({p for op in ops for p in op.problems} | set(warm_problems))
    peak_rss_mb = _peak_rss_mb()
    speed = statistics.median(speeds + [op.speed for op in ops])
    setup_raw = statistics.median(setup_times) + warm_s
    setup_s = setup_raw * speed

    lines.append(f"speed {speed:.4f} (median of {len(speeds) + len(ops)} kernel samples; "
                 f"times below marked raw are not scaled by it)")
    lines.append(f"setup_s {setup_s:.4f} s at reference speed (raw {setup_raw:.4f} s: median of "
                 f"{SETUP_ROUNDS} cold set-ups {statistics.median(setup_times):.4f} s + warm-up "
                 f"{warm_s:.4f} s)")
    if tracer is None:
        raw_ms = statistics.median(1e3 * op.seconds / op.units for op in ops)
        op_ms = raw_ms * speed
        lines.append(f"op_ms {op_ms:.4f} ms at reference speed (raw {raw_ms:.4f} ms), median "
                     f"of n={len(ops)}")
        if workload == "train-default":
            units = sum(op.units for op in ops)
            lines.append(f"train_steps_per_s {units / sum(op.seconds for op in ops):.4f} "
                         f"steps/s raw ({units} steps in {len(ops)} epochs)")
        else:
            lines.append(f"eval_s {raw_ms / 1e3:.4f} s/op raw, median (n={len(ops)})")
        lines.append(f"peak_rss_mb {peak_rss_mb:.2f} MB (peak before the first op: "
                     f"{setup_rss_mb:.2f} MB)")
        metrics = {
            "op_ms": op_ms,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
    else:
        metrics, self_sum = _layer_metrics(tracer, traced, untraced, setup_ops)
        lines.append(f"trace: self times sum to {self_sum:.4f} ms per {wl.unit}; traced op "
                     f"{metrics['trace.op_ms']:.4f} ms, untraced {metrics['trace.untraced_op_ms']:.4f} "
                     f"ms, overhead {metrics['trace.overhead_ms']:.4f} ms")
        if tracer.absent:
            lines.append(f"trace: absent layers (name no longer exists): {', '.join(tracer.absent)}")
        spans.check_nesting(tracer.spans)
    lines.append(f"error_rate {failed / attempted:.6f} ({failed} failed / {attempted} attempted ops)")
    for p in problems:
        lines.append(f"problem: {p}")

    result = {
        "correct": failed == 0 and not warm_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, lines, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cmil" / "__init__.py").is_file():
        print(f"error: cmil sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result, lines, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        lines.append(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
