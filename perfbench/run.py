#!/usr/bin/env python3
"""Layered benchmark of chancap: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, one after another
    python3 perfbench/run.py --workload qubit-capacity --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --workload cross-check --trace 1   # per-layer metrics
    python3 perfbench/run.py --compare OLD.json NEW.json        # per-op value drift

Load is a closed loop with one client: one op at a time, BLAS/OpenMP pinned
to one thread.  The last line of a workload run is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the per-op values go to
``perfbench/out/<workload>-s<seed>-t<trace>.json``.  Exit code 0 when every
check passed, 1 when a check failed, 2 when chancap cannot be imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

SETUP_REPEATS = 5
HARD_CAP_S = 90.0  # stop starting ops even when the value prefix is unfinished; keeps a traced run under 180 s
CLI_TIMEOUT_S = 30.0
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
IMPORT_PROBE = "import time; t = time.perf_counter(); import chancap.cli; print(time.perf_counter() - t)"
CLI_BUDGET = ["--restarts", "2", "--max-iters", "4", "--tol", "1e-6", "--seed", "17"]
WALL_TIME = re.compile(rb'"wall_time": [-+0-9.eE]+')
COMPARE_TOL = 1e-9  # value drift that --compare flags; the gate of the per-op route checks

# Host speed on shared machines swings by up to 1.6x within a minute, for the
# same work.  Op latencies in end-to-end metrics are therefore given in
# reference seconds: wall seconds scaled by CAL_REF_S over the time a fixed
# numpy kernel took around that op, i.e. seconds on a host where the kernel
# takes CAL_REF_S.  Wall-clock figures are kept in the result file.
CAL_MATRIX = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
CAL_REPS = 100
CAL_REF_S = 1e-3
CAL_PERIOD_S = 0.25


def load_chancap():
    """Import chancap from ``src/`` of this checkout, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import chancap.cli  # noqa: F401  (loads every module the tracer patches)
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import chancap from {SRC}: {exc}\n")
        sys.exit(2)
    if SRC not in Path(sys.modules["chancap"].__file__).resolve().parents:
        sys.stderr.write(f"error: chancap was imported from outside {SRC}\n")
        sys.exit(2)


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to ``import chancap.cli``."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout.strip())


def set_up(wl, seed: int):
    """Inputs for the run, and medians over several set-ups of their times.

    Returns the inputs, the set-up time in reference seconds (each set-up
    scaled by the kernel time just before and just after it), and the wall
    seconds of set-up and of the import alone.
    """
    setups, walls, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate(3)
        imp = fresh_import_s()
        t0 = time.perf_counter()
        inputs = wl.make_inputs(seed)
        wall = imp + time.perf_counter() - t0
        setups.append(wall * CAL_REF_S / (0.5 * (before + calibrate(3))))
        walls.append(wall)
        imports.append(imp)
    return inputs, statistics.median(setups), statistics.median(walls), statistics.median(imports)


def calibrate(samples: int = 1) -> float:
    """Seconds one fixed numpy kernel takes now (median of ``samples`` runs): the host's speed at this moment."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(CAL_REPS):
            np.linalg.eigvalsh(CAL_MATRIX)
            np.einsum("ab,bc->ac", CAL_MATRIX, CAL_MATRIX)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Loop:
    """What one closed loop ran: inputs, results, wall latencies and kernel samples."""

    used: list = field(default_factory=list)
    results: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    cal_before: list = field(default_factory=list)  # per op: index of the last calibration before it
    busy_s: float = 0.0  # wall time of the loop minus its calibrations

    def ref_latencies(self) -> np.ndarray:
        """Op latencies in reference seconds (on a host where the kernel takes CAL_REF_S).

        Each op is scaled by the kernel times just before and just after it,
        each smoothed as the median of the samples around it.
        """
        cal = np.asarray(self.calibrations)
        smooth = np.array([np.median(cal[max(0, i - 1): i + 3]) for i in range(len(cal))])
        before = np.asarray(self.cal_before, dtype=int)
        local = 0.5 * (smooth[before] + smooth[before + 1])
        return np.asarray(self.latencies) * CAL_REF_S / local


def closed_loop(wl, inputs: list, seconds: float, min_ops: int, tracer=None) -> Loop:
    """Run ops in order until ``seconds`` have passed and ``min_ops`` are done.

    The calibration kernel runs before the first op, before any op that
    starts CAL_PERIOD_S or more after the last calibration, and after the
    last op; its time is not part of any op.
    """
    loop = Loop()
    clock = time.perf_counter
    start = last_cal = clock()
    loop.calibrations.append(calibrate())
    while True:
        now = clock()
        elapsed = now - start
        i = len(loop.results)
        if (i >= min_ops and elapsed >= seconds) or elapsed >= HARD_CAP_S:
            break
        if now - last_cal >= CAL_PERIOD_S:
            loop.calibrations.append(calibrate())
            last_cal = clock()
        inp = inputs[i % len(inputs)]
        loop.cal_before.append(len(loop.calibrations) - 1)
        t0 = clock()
        out = wl.run(inp) if tracer is None else tracer.run_op(i, wl.kind(inp), wl.run, inp)
        loop.latencies.append(clock() - t0)
        loop.used.append(inp)
        loop.results.append(out)
    loop.calibrations.append(calibrate())
    loop.busy_s = clock() - start - sum(loop.calibrations)
    return loop


def tail(latencies: list, target: float) -> tuple[float, float]:
    """(percentile, value): ``target``, or the next lower ladder step with 10 samples beyond it."""
    n = len(latencies)
    pct = next((p for p in PERCENTILE_LADDER if p <= target and n * (1.0 - p / 100.0) >= 10.0), 50.0)
    return pct, float(np.percentile(latencies, pct))


def cli_determinism(seed: int) -> tuple[bool, float, str]:
    """Two ``chancap capacity --which all`` processes: exit 0, same bytes apart from wall_time."""
    from chancap import channels

    spec = OUT / f"cli-spec-s{seed}.json"
    spec.write_text(channels.channel_to_json(channels.random_channel(2, 2 + seed % 3, seed=seed)))
    cmd = [sys.executable, "-m", "chancap.cli", "capacity", str(spec), "--which", "all"] + CLI_BUDGET
    outs, first_s = [], None
    for _ in range(2):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=ENV, cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - t0, f"cli did not finish within {CLI_TIMEOUT_S:g} s"
        first_s = first_s if first_s is not None else time.perf_counter() - t0
        if proc.returncode != 0:
            return False, first_s, f"cli exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        outs.append(WALL_TIME.sub(b'"wall_time": null', proc.stdout))
    same = outs[0] == outs[1]
    return same, first_s, "" if same else "cli reports differ beyond wall_time"


def layer_metrics(tracer, n_ops: int, import_s: float, cli_s: float, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json; counts and times are per op unless the unit says otherwise."""
    from workloads import ESTIMATORS

    totals = tracer.layer_totals()

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    per_op = max(n_ops, 1)
    m = {}
    fevals = get("capacity.objective", "calls")
    m["capacity.nm.fevals"] = (fevals / per_op, "count/op")
    m["capacity.nm.self_s"] = (get("capacity.nm", "self_s") / per_op, "s/op")
    m["capacity.objective.self_s"] = (get("capacity.objective", "self_s") / per_op, "s/op")
    m["capacity.objective.us_per_eval"] = (1e6 * get("capacity.objective", "busy_s") / max(fevals, 1), "us")
    ba_calls = get("capacity.ba", "calls")
    m["capacity.ba.calls"] = (ba_calls / per_op, "count/op")
    m["capacity.ba.iterations"] = (tracer.ba_iterations / max(ba_calls, 1), "count/call")
    m["capacity.ba.capped_share"] = (tracer.ba_capped / max(ba_calls, 1), "ratio")
    m["capacity.ba.self_s"] = (get("capacity.ba", "self_s") / per_op, "s/op")
    for layer in ("capacity.holevo_weights", "capacity.params"):
        m[f"{layer}.calls"] = (get(layer, "calls") / per_op, "count/op")
        m[f"{layer}.self_s"] = (get(layer, "self_s") / per_op, "s/op")
    for est in ESTIMATORS.values():
        m[f"capacity.{est}.calls"] = (get(f"capacity.{est}", "calls") / per_op, "count/op")
        m[f"capacity.{est}.busy_s"] = (get(f"capacity.{est}", "busy_s") / per_op, "s/op")
    m["capacity.converged_share"] = (tracer.converged / max(tracer.estimates, 1), "ratio")
    for layer in (
        "channels",
        "adaptive.dual_conditional",
        "adaptive.flatten",
        "adaptive.chain_identity",
        "linalg",
        "information",
        "blocks",
    ):
        m[f"{layer}.calls"] = (get(layer, "calls") / per_op, "count/op")
        m[f"{layer}.self_s"] = (get(layer, "self_s") / per_op, "s/op")
    m["cli.import_s"] = (import_s, "s")
    m["cli.process_s"] = (cli_s, "s")
    m["trace.overhead_share"] = (overhead, "ratio")
    return m


def end_to_end(wl, loop: Loop, setup_s: float, setup_wall_s: float, records: list, checks: list):
    """End-to-end metrics of an untraced run, and the wall-clock facts behind them."""
    n = len(loop.latencies)
    ref = loop.ref_latencies()
    pct, tail_ref = tail(ref, wl.tail_percentile)
    prefix = records[: wl.value_prefix]
    gaps = [c.gap for c in checks if c.gap is not None]
    max_gap = max(gaps) if gaps else 0.0
    metrics = {
        "throughput_ops_per_s": (n / float(ref.sum()), "1/ref_s"),
        "op_latency_s.p50": (float(np.median(ref)), "ref_s"),
        "op_latency_s.tail": (tail_ref, "ref_s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mean_value_bits": (statistics.fmean(r["value"] for r in prefix), "bits"),
        "route_agreement_digits": (-math.log10(max(max_gap, 1e-17)), "digits"),
    }
    extra = {
        "wall": {
            "throughput_ops_per_s": n / loop.busy_s,
            "op_latency_s.p50": statistics.median(loop.latencies),
            "op_latency_s.tail": tail(loop.latencies, pct)[1],
            "busy_s": loop.busy_s,
            "setup_s": setup_wall_s,
            "kernel_ms": [1e3 * c for c in loop.calibrations],
        },
        "tail": {
            "percentile": pct,
            "samples": n,
            "beyond": int(n * (1.0 - pct / 100.0)),
            "ladder_ref_s": {f"p{p:g}": float(np.percentile(ref, p)) for p in PERCENTILE_LADDER},
        },
        "max_route_gap_bits": max_gap,
        "value_prefix_ops": len(prefix),
    }
    return metrics, extra


def traced_extras(wl, tracer, seed: int, seconds: float, loop: Loop, records: list, checks: list, import_s: float):
    """Per-layer metrics of a traced run, after re-running its first ops untraced.

    The ops that filled the first quarter of the traced time run again
    without the tracer: their values must match exactly, and the ratio of the
    two times, in reference seconds, is the tracing overhead.  A mismatch
    fails the op.
    """
    k, acc = 0, 0.0
    while k < len(loop.latencies) and (k == 0 or acc < seconds / 4.0):
        acc += loop.latencies[k]
        k += 1
    again = closed_loop(wl, loop.used[:k], 0.0, k)
    for j, (inp, out) in enumerate(zip(again.used, again.results)):
        if wl.record(inp, out)["values"] != records[j]["values"]:
            checks[j].ok, checks[j].note = False, "traced and untraced values differ"
    overhead = float(loop.ref_latencies()[:k].sum() / again.ref_latencies().sum()) - 1.0
    cli_ok, cli_s, cli_note = cli_determinism(seed)
    metrics = layer_metrics(tracer, len(records), import_s, cli_s, overhead)
    extra = {
        "cli": {"ok": cli_ok, "process_s": cli_s, "note": cli_note},
        "overhead_ops": k,
        "layers": tracer.layer_totals(),
        "spans": tracer.span_totals(),
    }
    return metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool, min_ops: int | None = None) -> dict:
    """One run: set-up, timed closed loop, checks; returns the result document."""
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    min_ops = wl.value_prefix if min_ops is None else min_ops
    OUT.mkdir(exist_ok=True)
    inputs, setup_s, setup_wall_s, import_s = set_up(wl, seed)

    tracer = Tracer() if trace else None
    if tracer is None:
        loop = closed_loop(wl, inputs, seconds, min_ops)
    else:
        with tracer:
            loop = closed_loop(wl, inputs, seconds, min_ops, tracer)
    records = [wl.record(inp, out) for inp, out in zip(loop.used, loop.results)]
    checks = wl.check(loop.used, loop.results)

    attempted = len(records)
    if tracer is not None:
        metrics, extra = traced_extras(wl, tracer, seed, seconds, loop, records, checks, import_s)
        attempted += 1  # the CLI determinism pair
        failed = sum(not c.ok for c in checks) + (not extra["cli"]["ok"])
        tracer.write(OUT / f"{name}.spans.npz")
    else:
        metrics, extra = end_to_end(wl, loop, setup_s, setup_wall_s, records, checks)
        failed = sum(not c.ok for c in checks)
    extra["failed_op_share"] = failed / attempted

    ops = [
        {
            "i": i,
            "kind": wl.kind(inp),
            "input": i % len(inputs),
            "latency_s": lat,
            "ref_latency_s": ref_lat,
            **rec,
            "ok": chk.ok,
            "gap": chk.gap,
            "note": chk.note,
        }
        for i, (inp, lat, ref_lat, rec, chk) in enumerate(
            zip(loop.used, loop.latencies, loop.ref_latencies().tolist(), records, checks)
        )
    ]
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "ops": ops,
    }
    (OUT / f"{name}-s{seed}-t{int(trace)}.json").write_text(json.dumps(doc))
    doc["summary"] = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": doc["metrics"]}
    return doc


def print_run(doc: dict) -> None:
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  ops {len(doc['ops'])}")
    for name, m in doc["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "tail" in doc:
        t = doc["tail"]
        print(f"  tail is p{t['percentile']:g} of {t['samples']} ops ({t['beyond']} beyond it)")
        print(f"  max_route_gap_bits = {doc['max_route_gap_bits']:.3e} bits")
        w = doc["wall"]
        print(
            f"  wall clock: {w['throughput_ops_per_s']:.6g} ops/s, p50 {w['op_latency_s.p50']:.6g} s, "
            f"tail {w['op_latency_s.tail']:.6g} s, setup {w['setup_s']:.4g} s; "
            f"kernel mean {statistics.fmean(w['kernel_ms']):.4g} ms"
        )
    if "cli" in doc:
        print(f"  cli determinism: {'ok' if doc['cli']['ok'] else 'FAILED ' + doc['cli']['note']}")
    print(f"  failed_op_share = {doc['failed_op_share']:.6g}")
    for op in doc["ops"]:
        if not op["ok"]:
            print(f"  FAILED op {op['i']} ({op['kind']}): {op['note']}")
    print(json.dumps(doc["summary"]))


# ---------------------------------------------------------------------------
# Compare mode and the all-workloads mode
# ---------------------------------------------------------------------------

def compare(old_path: str, new_path: str, tol: float = COMPARE_TOL) -> int:
    """Flag ops whose computed values moved by more than ``tol`` between two result files."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        print(f"warning: comparing {old['workload']}/seed {old['seed']} with {new['workload']}/seed {new['seed']}")
    drifted, worst, matched = [], 0.0, 0
    for a, b in zip(old["ops"], new["ops"]):
        if (a["kind"], a["input"]) != (b["kind"], b["input"]):
            break
        matched += 1
        for key, va in a["values"].items():
            vb = b["values"].get(key)
            delta = math.inf if vb is None else abs(va - vb)
            worst = max(worst, delta)
            if delta > tol:
                drifted.append((a["i"], a["kind"], key, va, vb))
        if a.get("converged") != b.get("converged"):
            drifted.append((a["i"], a["kind"], "converged", a.get("converged"), b.get("converged")))
    for i, kind, key, va, vb in drifted:
        print(f"drift op {i} ({kind}) {key}: {va} -> {vb}")
    print(f"compared {matched} ops; {len(drifted)} drifted beyond {tol:g}; largest value change {worst:.3e}")
    return 1 if drifted else 0


def run_all(seed: int, seconds: float | None, trace: int) -> int:
    """Every workload, each in its own process; the worst exit code."""
    load_chancap()
    from workloads import WORKLOADS

    codes = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
        cmd += ["--trace", str(trace)] + (["--seconds", str(seconds)] if seconds is not None else [])
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload; default: every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="measured time per run; default: BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    args = p.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    load_chancap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    doc = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print_run(doc)
    return 0 if doc["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
