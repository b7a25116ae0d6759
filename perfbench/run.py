#!/usr/bin/env python3
"""fluxrec benchmark: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The library is imported from ``src/`` of the
checkout this file lives in.  An untraced run (``--trace 0``) prints the
end-to-end metrics; a traced run (``--trace 1``) prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object; the full result, with every raw sample, goes to
``perfbench/out/<workload>-trace<0|1>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

# Pin BLAS threads before numpy loads.  The dense matrices are at most
# 120 x 120, so extra threads add only scheduling noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("stream", "lcurve", "boundary", "batch_cli")

END_TO_END = {  # name -> unit; the metrics BENCHMARK.json gates
    "setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s",
    "err_u_p50": "ratio", "peak_rss_mib": "MiB",
}
INFO_UNITS = {"op_ms_p90": "ms", "fail_frac": "ratio"}  # reported, not gated
LAYER_FUNCTIONS = {
    "mesh": ("generate_annulus_mesh", "validate_mesh", "load_mesh",
             "save_mesh"),
    "fem": ("assemble_stiffness", "solve_dirichlet", "solve_neumann",
            "boundary_flux_load", "energy_norm_sq"),
    "completion": ("assemble_kv", "solve_completion", "evaluate"),
    "regularization": ("sweep", "find_corner"),
    "postprocess": ("find_plasma_boundary", "extract_isoline"),
    "experiments": ("run_twin", "generate_reference", "add_noise"),
}
PER_LAYER = {  # name -> unit
    **{f"{layer}.{fn}.{kind}": ("count" if kind == "calls" else "ms")
       for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
       for kind in ("calls", "ms", "self_ms")},
    "regularization.sweep.points": "count",
    "regularization.sweep.dropped": "count",
    "postprocess.find_plasma_boundary.errors": "count",
    "io.write.calls": "count", "io.write.ms": "ms",
    "io.read.calls": "count", "io.read.ms": "ms",
    "io.bytes_written": "bytes",
    "cli.mesh.ms": "ms", "cli.twin.ms": "ms", "cli.lcurve.ms": "ms",
    "cli.contour.ms": "ms", "cli.nonzero_exits": "count",
    "trace.overhead": "ratio",
}


def span_name(module: str, function: str) -> str | None:
    """Span name of a library function; io readers and writers are pooled.

    cli.main is left alone: the benchmark spans each command itself.
    """
    if module == "cli":
        return None
    if module == "io":
        for kind in ("write", "read"):
            if function.startswith(kind + "_"):
                return f"io.{kind}"
    return f"{module}.{function}"


SPAN_HOOKS = {
    "regularization.sweep": lambda curve, args: {
        "regularization.sweep.points": len(curve),
        "regularization.sweep.dropped": len(curve.dropped)},
    "io.write": lambda _, args: {"io.bytes_written": os.path.getsize(args[0])},
}


def import_library():
    sys.dont_write_bytecode = True  # leave the checkout's src untouched
    sys.path.insert(0, SRC)
    try:
        import fluxrec
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fluxrec from {SRC}: {exc}")
    if not os.path.abspath(fluxrec.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: fluxrec came from {fluxrec.__file__}, not {SRC}")
    return fluxrec


def environment(fluxrec) -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:  # older releases print instead of returning
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(np),
        "scipy_blas": blas(scipy), "blas_threads": BLAS_THREADS,
        "fluxrec": fluxrec.__version__, "platform": platform.platform(),
    }


class OpLog:
    """Outcome of every op of one timed loop, stored compactly so that the
    log itself barely moves peak memory."""

    def __init__(self, start: int):
        self.start = start          # id of the first op
        self.at = array("d")        # perf_counter at the op's midpoint
        self.ms = array("d")        # wall time inside the op
        self.ok = array("b")        # op returned and its output check passed
        self.err = array("d")       # relative error, NaN where none applies
        self.failures = []          # (op id, message)

    def __len__(self) -> int:
        return len(self.ms)

    def add(self, t0: float, t1: float, err: float | None = None,
            failure: str = "") -> None:
        if failure:
            self.failures.append((self.start + len(self), failure))
        self.at.append(0.5 * (t0 + t1))
        self.ms.append((t1 - t0) * 1e3)
        self.ok.append(not failure)
        self.err.append(float("nan") if err is None else err)

    def kept(self, warmup: int) -> list[int]:
        """Ids of the successful ops after the first `warmup`."""
        return [self.start + j for j in range(warmup, len(self)) if self.ok[j]]

    def to_json(self) -> dict:
        return {"first_op": self.start, "op_at_s": list(self.at),
                "op_ms": list(self.ms), "ok": [bool(x) for x in self.ok],
                "err": [None if e != e else e for e in self.err],
                "failures": self.failures}


def timed_loop(wl, seconds: float, probe, start: int = 0,
               tracer=None) -> OpLog:
    """Closed loop: each op starts when the previous one has been checked.

    Only the op itself is timed; making its inputs, checking its outputs
    and probing the host speed happen between ops.  Ops keep running past
    the deadline until there is one beyond the warm-up.
    """
    from workloads import CheckFailed

    log = OpLog(start)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(log) <= wl.warmup_ops:
        if probe.due():
            probe.probe()
        i = start + len(log)
        inp = wl.make_input(i)
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:  # an op failure is a measured outcome
            log.add(t0, perf_counter(), failure=f"{type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.op = None
        t1 = perf_counter()
        try:
            log.add(t0, t1, wl.check(inp, out))
        except CheckFailed as exc:
            log.add(t0, t1, failure=f"check: {exc}")
        except Exception as exc:  # a check that cannot run fails the op too
            log.add(t0, t1, failure=f"check: {type(exc).__name__}: {exc}")
    probe.probe()  # so that every op lies between two probes
    return log


def timing_stats(log: OpLog, warmup: int, probe) -> dict:
    """Op-time statistics over the successful ops after warm-up.

    Each op's wall time is scaled to the reference host speed (see
    hostspeed.py) with the probe cost interpolated at the op's midpoint.
    The unscaled figures are kept alongside under raw_*.
    """
    import numpy as np

    keep = np.array(log.ok, dtype=bool)
    keep[:warmup] = False
    raw = np.array(log.ms)[keep]
    if len(raw) == 0:
        return {}
    scaled = raw * probe.scale_at(np.array(log.at)[keep])
    return {"op_ms_p50": float(np.percentile(scaled, 50)),
            "op_ms_p90": float(np.percentile(scaled, 90)),
            "ops_per_s": len(scaled) / (scaled.sum() / 1e3),
            "samples": len(scaled),
            "raw_op_ms_p50": float(np.percentile(raw, 50)),
            "raw_op_ms_p90": float(np.percentile(raw, 90)),
            "raw_ops_per_s": len(raw) / (raw.sum() / 1e3)}


def make_workload(name: str, seed: int, tag: str = "work"):
    import workloads

    cls = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    if cls is workloads.BatchCli:
        return cls(seed, os.path.join(OUT, f"{name}-{tag}"))
    return cls(seed)


def cold_setup(wl) -> tuple[float, float]:
    """Time wl.setup() once: (wall s, s at the reference host speed)."""
    from hostspeed import NOMINAL_MS, HostProbe

    probe = HostProbe()
    gc.collect()
    before = probe.probe()
    t0 = perf_counter()
    wl.setup()
    raw = perf_counter() - t0
    after = probe.probe()
    return raw, raw * NOMINAL_MS / (0.5 * (before + after))


def setup_in_child(args) -> tuple[float, float]:
    """One cold set-up in a fresh process, so that nothing a process keeps
    from an earlier set-up (module-level caches, say) can shorten it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    raw, scaled = json.loads(lines[-1])
    return raw, scaled


def setup_only(args) -> int:
    import_library()
    wl = make_workload(args.workload, args.seed, "setup")
    try:
        print(json.dumps(cold_setup(wl)))
    finally:
        if hasattr(wl, "workdir"):
            shutil.rmtree(wl.workdir, ignore_errors=True)
    return 0


def run_workload(args) -> dict:
    fluxrec = import_library()
    import workloads
    from hostspeed import HostProbe

    wl = make_workload(args.workload, args.seed)
    # all but one cold set-up run in child processes first, so that this
    # process builds one geometry only and its peak memory shows just that
    setups = [setup_in_child(args) for _ in range(wl.setup_repeats - 1)]
    setups.append(cold_setup(wl))
    setup_raw = [raw for raw, _ in setups]
    setup_scaled = [scaled for _, scaled in setups]
    wl.prepare()
    probe = HostProbe()

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(fluxrec),
              "mesh": workloads.mesh_sizes(wl.mesh),
              "setup_s_samples": setup_scaled,
              "raw_setup_s_samples": setup_raw,
              "warmup_ops": wl.warmup_ops}
    try:
        if args.trace:
            logs, metrics, info = _traced(args, wl, probe, result)
            units = PER_LAYER
        else:
            log = timed_loop(wl, args.seconds, probe)
            logs = [log]
            stats = timing_stats(log, wl.warmup_ops, probe)
            errs = [e for e in log.err if e == e]
            metrics = {
                "setup_s": statistics.median(setup_scaled),
                "op_ms_p50": stats.get("op_ms_p50"),
                "ops_per_s": stats.get("ops_per_s"),
                "err_u_p50": statistics.median(errs) if errs else None,
                "peak_rss_mib": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            info = {"op_ms_p90": stats.get("op_ms_p90")}
            units = END_TO_END
            result.update(timing=stats, ops=log.to_json())
        result.update(probe_at_s=probe.times, probe_ms=probe.ms)
    finally:
        if hasattr(wl, "workdir"):
            shutil.rmtree(wl.workdir, ignore_errors=True)

    attempted = sum(len(log) for log in logs)
    failed = sum(len(log.failures) for log in logs)
    info["fail_frac"] = failed / attempted
    correct = failed == 0 and all(v is not None for v in metrics.values())
    result.update(attempted=attempted, failed=failed, metrics=metrics,
                  info=info)
    _write_json(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"),
                result)

    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed; mesh {result['mesh']}")
    if not args.trace:
        t = result["timing"]
        print(f"  op times over {t.get('samples', 0)} ops after "
              f"{wl.warmup_ops} warm-up ops, at the reference host speed; "
              f"wall clock: p50 {_fmt(t.get('raw_op_ms_p50'))} ms, p90 "
              f"{_fmt(t.get('raw_op_ms_p90'))} ms, set-up "
              f"{_fmt(statistics.median(setup_raw))} s")
    for name, value in metrics.items():
        print(f"  {name:48s} {_fmt(value):>14s} {units[name]}")
    for name, value in info.items():
        print(f"  {name:48s} {_fmt(value):>14s} {INFO_UNITS[name]}"
              "  (not gated)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()
                        if value is not None}}


def _traced(args, wl, probe, result):
    """Untraced then traced loops; per-layer medians and tracing overhead."""
    from tracer import Tracer, op_medians, per_op_table

    untraced = timed_loop(wl, args.seconds / 3, probe)
    tracer = Tracer()
    wl.tracer = tracer
    tracer.install("fluxrec", span_name, SPAN_HOOKS)
    try:
        traced = timed_loop(wl, 2 * args.seconds / 3, probe, len(untraced),
                            tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None
    base = timing_stats(untraced, wl.warmup_ops, probe)
    with_spans = timing_stats(traced, wl.warmup_ops, probe)
    table = per_op_table(tracer.spans, tracer.counts)
    _scale_span_times(table, traced, probe)
    kept = traced.kept(wl.warmup_ops)
    metrics = op_medians(table, kept,
                         [n for n in PER_LAYER if n != "trace.overhead"])
    metrics["trace.overhead"] = (with_spans["op_ms_p50"]
                                 / base["op_ms_p50"] - 1.0)
    result.update(untraced_timing=base, traced_timing=with_spans,
                  layer_medians=op_medians(table, kept),
                  ops_untraced=untraced.to_json(), ops=traced.to_json())
    _write_spans(args.workload, tracer)
    return [untraced, traced], metrics, {}


def _scale_span_times(table, log: OpLog, probe) -> None:
    """Scale each op's span times to the reference host speed, with the
    factor its op time gets, so that layer times compare across runs."""
    for j, factor in enumerate(probe.scale_at(list(log.at))):
        row = table.get(log.start + j)
        for name in row or ():
            if name.endswith((".ms", ".self_ms")):
                row[name] *= factor


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh)


def _write_spans(workload: str, tracer) -> None:
    names = sorted({s.name for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with gzip.open(os.path.join(OUT, f"{workload}-spans.json.gz"), "wt",
                   encoding="ascii") as fh:
        json.dump({"names": names,
                   "columns": ["name", "start", "end", "parent", "op"],
                   "spans": [[index[s.name], s.start, s.end, s.parent, s.op]
                             for s in tracer.spans],
                   "counts": tracer.counts}, fh)


def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}\n"
                  f"{proc.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one cold set-up, for run.py
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
