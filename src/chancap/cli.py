"""Command-line interface: capacities, identity checks, additivity runs, sweeps.

Reports are JSON documents with a fixed key order; numeric results carry the
tolerance used in any internal assertion.  With a fixed seed and flags the
report is reproducible byte for byte, except for the wall_time field.

Exit codes: 0 success, 1 usage or parse error, 2 invariant violation,
3 bound/assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .adaptive import (
    ConditionalPovm,
    additivity_experiment,
    best_conditional_information,
    chain_identity_check,
)
from .capacity import (
    OptimizerConfig,
    _pauli_form,
    holevo_capacity,
    measured_input_bound,
    shannon_capacity,
)
from .channels import (
    Povm,
    QuantumChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    load_channel,
    phase_damping_channel,
)
from .errors import ChannelSpecError, DimensionMismatchError, InvariantViolation
from .information import (
    classical_mutual_information,
    conditional_mutual_information,
)
from .rand import random_ensemble, random_povm
from .channels import apply, dual_apply, random_channel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_BOUND = 3

MAX_SWEEP_POINTS = 10_000
MAX_JSON_INDENT = 16

_FAMILIES = {
    "depolarizing": depolarizing_channel,
    "amplitude-damping": amplitude_damping_channel,
    "bit-flip": bit_flip_channel,
    "phase-damping": phase_damping_channel,
}


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _result(name: str, value, tolerance=None, passed=None) -> dict:
    entry = {"name": name, "value": value}
    if tolerance is not None:
        entry["tolerance"] = tolerance
    if passed is not None:
        entry["passed"] = bool(passed)
    return entry


def _report(command: str, digest: str, cfg: OptimizerConfig, results: list, seed: int, t0: float) -> dict:
    return {
        "command": command,
        "channel_spec_digest": digest,
        "config": asdict(cfg),  # every OptimizerConfig field, in declaration order
        "results": results,
        "seed": seed,
        "wall_time": round(time.perf_counter() - t0, 3),
    }


def _emit(report: dict, args) -> None:
    sys.stdout.write(json.dumps(report, indent=args.json_indent or None) + "\n")


def _bloch_coordinates(state: np.ndarray) -> list[float]:
    return (2.0 * _pauli_form(state)[1]).tolist()


def _povm_summary(m: Povm) -> list:
    if m.dim != 2:
        return [{"element": i, "trace": float(np.trace(e).real)} for i, e in enumerate(m.elements)]
    w0, w = _pauli_form(np.stack(m.elements))
    return [{"element": i, "w0": round(float(w0[i]), 9), "w": [round(c, 9) for c in w[i]]} for i in range(len(w))]


def _ensemble_summary(ens) -> list:
    if ens is None:
        return []
    out = []
    for p, s in zip(ens.probs, ens.states):
        if p < 1e-6:
            continue
        entry = {"weight": round(float(p), 9)}
        if s.shape[0] == 2:
            entry["bloch"] = [round(c, 9) for c in _bloch_coordinates(s)]
        out.append(entry)
    return out


def _config_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
        ensemble_size_cap=args.ensemble_cap,
        povm_size_cap=args.povm_cap,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_capacity(args) -> int:
    t0 = time.perf_counter()
    data = Path(args.channel).read_bytes()
    ch = load_channel(data.decode("utf-8"))
    cfg = _config_from_args(args)
    results = []
    values = {}
    if args.which in ("shannon", "all"):
        r = shannon_capacity(ch, cfg)
        values["shannon"] = r.value
        results.append(_result("shannon_capacity", round(r.value, 9)))
        results.append({"name": "shannon_argmax_ensemble", "value": _ensemble_summary(r.argmax_ensemble)})
        results.append({"name": "shannon_argmax_povm", "value": _povm_summary(r.argmax_povm)})
    if args.which in ("holevo", "all"):
        r = holevo_capacity(ch, cfg)
        values["holevo"] = r.value
        results.append(_result("holevo_capacity", round(r.value, 9)))
        results.append({"name": "holevo_argmax_ensemble", "value": _ensemble_summary(r.argmax_ensemble)})
    if args.which in ("uep", "all"):
        r = measured_input_bound(ch, cfg)
        values["uep"] = r.value
        results.append(_result("measured_input_bound", round(r.value, 9)))
        if r.argmax_rho is not None and r.argmax_rho.shape[0] == 2:
            results.append(
                {"name": "uep_argmax_input_bloch", "value": [round(c, 9) for c in _bloch_coordinates(r.argmax_rho)]}
            )
        results.append({"name": "uep_argmax_povm", "value": _povm_summary(r.argmax_povm)})

    failed = False
    if "shannon" in values and "holevo" in values:
        ok = values["shannon"] <= values["holevo"] + 1e-4
        results.append(_result("ordering_shannon_le_holevo", round(values["holevo"] - values["shannon"], 9), 1e-4, ok))
        failed |= not ok
    if "shannon" in values and "uep" in values:
        ok = values["shannon"] <= values["uep"] + 1e-4
        results.append(_result("ordering_shannon_le_uep", round(values["uep"] - values["shannon"], 9), 1e-4, ok))
        failed |= not ok

    _emit(_report("capacity", _digest(data), cfg, results, args.seed, t0), args)
    return EXIT_BOUND if failed else EXIT_OK


def cmd_identity_check(args) -> int:
    t0 = time.perf_counter()
    cfg = _config_from_args(args)
    rng = np.random.default_rng(args.seed)

    worst_quantum = 0.0
    for k in range(args.instances):
        ch1 = random_channel(2, int(rng.integers(1, 5)), seed=args.seed * 1_000_003 + 2 * k)
        ch2 = random_channel(2, int(rng.integers(1, 5)), seed=args.seed * 1_000_003 + 2 * k + 1)
        e12 = random_ensemble(4, int(rng.integers(2, 5)), rng)
        first = random_povm(2, 2, rng)
        second = (random_povm(2, 2, rng), random_povm(2, 2, rng))
        if args.inject_fault and k == 0:
            bad = first.elements[0] + 0.05 * np.eye(2)
            first = Povm((bad, first.elements[1]))  # raises InvariantViolation
        cp = ConditionalPovm(first, second)
        _, _, gap = chain_identity_check(e12, ch1, ch2, cp)
        worst_quantum = max(worst_quantum, gap)

    worst_classical = 0.0
    for _ in range(args.instances):
        table = rng.random((2, 2, 2))
        table /= table.sum()
        joint = classical_mutual_information(table.reshape(2, 4))
        split = classical_mutual_information(table.sum(axis=2)) + conditional_mutual_information(table)
        worst_classical = max(worst_classical, abs(joint - split))

    ok_q = worst_quantum <= 1e-9
    ok_c = worst_classical <= 1e-9
    results = [
        _result("max_gap_quantum_chain", worst_quantum, 1e-9, ok_q),
        _result("max_gap_classical_chain", worst_classical, 1e-9, ok_c),
        _result("instances", args.instances),
    ]
    _emit(_report("identity-check", "", cfg, results, args.seed, t0), args)
    return EXIT_OK if (ok_q and ok_c) else EXIT_BOUND


def cmd_additivity(args) -> int:
    t0 = time.perf_counter()
    cfg = _config_from_args(args)
    blobs = [Path(f).read_bytes() for f in args.channels]
    channels = [load_channel(b.decode("utf-8")) for b in blobs]
    digest = _digest(b"\n".join(blobs))

    if args.depth == 2:
        if len(channels) > 2:
            raise ChannelSpecError("depth 2 takes one or two channel files")
        ch1 = channels[0]
        ch2 = channels[1] if len(channels) > 1 else channels[0]
        rep = additivity_experiment(ch1, ch2, cfg)
        up_ok, lo_ok = rep.upper_bound_ok(), rep.lower_bound_ok()
        results = [
            _result("capacity_1", round(rep.capacity_1, 9)),
            _result("capacity_2", round(rep.capacity_2, 9)),
            _result("capacity_sum", round(rep.capacity_sum, 9)),
            _result("conditional_best", round(rep.conditional_best, 9)),
            _result("product_strategy", round(rep.product_value, 9)),
            _result("upper_bound", round(rep.capacity_sum - rep.conditional_best, 9), 1e-4, up_ok),
            _result("lower_bound", round(rep.product_value - rep.capacity_sum, 9), 2e-3, lo_ok),
        ]
        _emit(_report("additivity", digest, cfg, results, args.seed, t0), args)
        return EXIT_OK if (up_ok and lo_ok) else EXIT_BOUND

    if len(channels) != 1:
        raise ChannelSpecError("depth 3 takes exactly one channel file")
    ch = channels[0]
    value, _, _ = best_conditional_information([ch, ch, ch], cfg)  # first: it rejects a non-qubit output at once
    single = shannon_capacity(ch, cfg)
    bound = 3.0 * single.value
    ok = value <= bound + 2e-3
    results = [
        _result("single_copy_capacity", round(single.value, 9)),
        _result("conditional_best_depth3", round(value, 9)),
        _result("upper_bound", round(bound - value, 9), 2e-3, ok),
    ]
    _emit(_report("additivity", digest, cfg, results, args.seed, t0), args)
    return EXIT_OK if ok else EXIT_BOUND


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    cfg = _config_from_args(args)
    family = _FAMILIES[args.family]
    span = (args.stop - args.start) / args.step + 1e-12  # in steps, with the end slack
    if span >= MAX_SWEEP_POINTS:
        sys.stderr.write(f"error: --step {args.step} gives more than {MAX_SWEEP_POINTS} points\n")
        return EXIT_USAGE
    params = [round(args.start + i * args.step, 12) for i in range(math.floor(max(span, -1.0)) + 1)]

    estimators = {"shannon": shannon_capacity, "holevo": holevo_capacity, "uep": measured_input_bound}
    rows = []
    for p in params:
        ch = family(p)
        row = {"param": p}
        for name, estimate in estimators.items():
            row[name] = estimate(ch, cfg).value if args.which in (name, "all") else float("nan")
        gap = row["holevo"] - row["shannon"]
        row["holevo_minus_shannon"] = gap
        row["strict_gap"] = int(gap > 1e-3) if np.isfinite(gap) else 0
        rows.append(row)

    header = ["param", "shannon", "holevo", "uep", "holevo_minus_shannon", "strict_gap"]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _csv_num(row[k]) for k in header})

    results = [
        {"name": "rows", "value": [{k: _csv_num(row[k]) for k in header} for row in rows]},
        _result("csv_path", args.csv or ""),
    ]
    _emit(_report("sweep", _digest(f"{args.family}:{params}".encode()), cfg, results, args.seed, t0), args)
    return EXIT_OK


def _csv_num(v):
    if isinstance(v, float):
        return round(v, 9)
    return v


def cmd_channel_info(args) -> int:
    t0 = time.perf_counter()
    data = Path(args.channel).read_bytes()
    ch = load_channel(data.decode("utf-8"))
    comp = dual_apply(ch, np.eye(ch.dim_out))  # sum K†K
    unital_dev = float(np.max(np.abs(apply(ch, np.eye(ch.dim_in)) - np.eye(ch.dim_out))))  # sum KK† - I
    cfg = _config_from_args(args)
    results = [
        _result("dim_in", ch.dim_in),
        _result("dim_out", ch.dim_out),
        _result("kraus_count", len(ch.kraus)),
        _result("trace_preservation_deviation", float(np.max(np.abs(comp - np.eye(ch.dim_in))))),
        _result("unital_deviation", unital_dev),
    ]
    _emit(_report("channel-info", _digest(data), cfg, results, args.seed, t0), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _int_in(low: int, high: float):
    """An argparse type: an integer in [low, high]."""
    def integer(text: str) -> int:  # argparse names it in its message for a non-integer
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [{low}, {high}]")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chancap",
        description="Classical-information capacities and bounds of small quantum channels.",
    )
    parser.add_argument("--version", action="version", version=f"chancap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=4)
        p.add_argument("--max-iters", type=int, default=12, dest="max_iters")
        p.add_argument("--tol", type=float, default=1e-7)
        p.add_argument("--ensemble-cap", type=int, default=4, dest="ensemble_cap")
        p.add_argument("--povm-cap", type=int, default=4, dest="povm_cap")
        p.add_argument("--json-indent", type=_int_in(0, MAX_JSON_INDENT), default=0, dest="json_indent")

    p = sub.add_parser("capacity", help="capacity estimates for one channel")
    p.add_argument("channel", help="channel specification JSON file")
    p.add_argument("--which", choices=["shannon", "holevo", "uep", "all"], default="all")
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("identity-check", help="randomised two-stage information identity check")
    p.add_argument("--instances", type=_int_in(1, math.inf), default=1000)
    p.add_argument("--inject-fault", action="store_true", help="corrupt a POVM to exercise the error path")
    common(p)
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("additivity", help="conditional-measurement additivity experiment")
    p.add_argument("channels", nargs="+", help="one or two channel specification files")
    p.add_argument("--depth", type=int, choices=[2, 3], default=2)
    common(p)
    p.set_defaults(func=cmd_additivity)

    p = sub.add_parser("sweep", help="capacity curves over a one-parameter channel family")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--start", type=_finite_float, default=0.0)
    p.add_argument("--stop", type=_finite_float, default=1.0)
    p.add_argument("--step", type=_positive_float, default=0.1)
    p.add_argument("--which", choices=["shannon", "holevo", "uep", "all"], default="all")
    p.add_argument("--csv", default="", help="write rows to this CSV path")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("channel-info", help="validate a channel specification and print its shape")
    p.add_argument("channel")
    common(p)
    p.set_defaults(func=cmd_channel_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ChannelSpecError, DimensionMismatchError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
