"""Command-line interface: capacities, identity checks, additivity runs, sweeps.

Each command returns its spec digest and its result entries; ``main`` builds
the configuration, times the run and writes the one JSON report, with a fixed
key order.  Numeric results carry the tolerance used in any internal check.
With a fixed seed, flags and BLAS thread count the report is reproducible
byte for byte, except for the wall_time field; another thread count can
change the values a search reports.

Exit codes: 0 success, 1 usage or parse error, 2 invariant violation,
3 bound failure, which is any result entry with "passed": false.  The
configuration is checked before any spec is read, so a bad one exits 2
whatever the spec.
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
    amplitude_damping_channel,
    apply,
    bit_flip_channel,
    depolarizing_channel,
    dual_apply,
    load_channel,
    phase_damping_channel,
    random_channel,
)
from .errors import ChannelSpecError, DimensionMismatchError, InvariantViolation
from .information import (
    classical_mutual_information,
    conditional_mutual_information,
)
from .rand import random_ensemble, random_povm

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

# The estimators of `capacity` and `sweep` under their --which names, in report order;
# `capacity` names each value's result entry after its function.
_ESTIMATORS = {"shannon": shannon_capacity, "holevo": holevo_capacity, "uep": measured_input_bound}


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _result(name: str, value, tolerance=None, passed=None) -> dict:
    entry = {"name": name, "value": value}
    if tolerance is not None:
        entry["tolerance"] = tolerance
    if passed is not None:
        entry["passed"] = bool(passed)
    return entry


def _read_channels(*paths: str) -> tuple[str, list]:
    """The digest of the spec files' bytes, joined by newlines, and their channels."""
    blobs = [Path(path).read_bytes() for path in paths]
    return _digest(b"\n".join(blobs)), [load_channel(blob.decode("utf-8")) for blob in blobs]


def _bloch_coordinates(state: np.ndarray) -> list[float]:
    return [round(c, 9) for c in (2.0 * _pauli_form(state)[1]).tolist()]


def _povm_summary(m: Povm) -> list:
    if m.dim != 2:
        return [{"element": i, "trace": float(np.trace(e).real)} for i, e in enumerate(m.elements)]
    w0, w = _pauli_form(m.elements)
    return [{"element": i, "w0": round(float(w0[i]), 9), "w": [round(c, 9) for c in w[i]]} for i in range(len(w))]


def _ensemble_summary(ens) -> list:
    out = []
    for p, s in zip(ens.probs, ens.states):
        if p < 1e-6:
            continue
        entry = {"weight": round(float(p), 9)}
        if s.shape[0] == 2:
            entry["bloch"] = _bloch_coordinates(s)
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# Subcommands: each returns (channel spec digest, result entries)
# ---------------------------------------------------------------------------

def cmd_capacity(args, cfg: OptimizerConfig) -> tuple[str, list]:
    digest, (ch,) = _read_channels(args.channel)
    results, values = [], {}
    for name, estimate in _ESTIMATORS.items():
        if args.which not in (name, "all"):
            continue
        r = estimate(ch, cfg)
        values[name] = r.value
        results.append(_result(estimate.__name__, round(r.value, 9)))
        if r.argmax_ensemble is not None:
            results.append(_result(f"{name}_argmax_ensemble", _ensemble_summary(r.argmax_ensemble)))
        if r.argmax_rho is not None and r.argmax_rho.shape[0] == 2:
            results.append(_result(f"{name}_argmax_input_bloch", _bloch_coordinates(r.argmax_rho)))
        if r.argmax_povm is not None:
            results.append(_result(f"{name}_argmax_povm", _povm_summary(r.argmax_povm)))
    for name in ("holevo", "uep"):  # each bounds the Shannon capacity from above
        if "shannon" in values and name in values:
            ok = values["shannon"] <= values[name] + 1e-4
            results.append(_result(f"ordering_shannon_le_{name}", round(values[name] - values["shannon"], 9), 1e-4, ok))
    return digest, results


def cmd_identity_check(args, cfg: OptimizerConfig) -> tuple[str, list]:
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

    return "", [
        _result("max_gap_quantum_chain", worst_quantum, 1e-9, worst_quantum <= 1e-9),
        _result("max_gap_classical_chain", worst_classical, 1e-9, worst_classical <= 1e-9),
        _result("instances", args.instances),
    ]


def cmd_additivity(args, cfg: OptimizerConfig) -> tuple[str, list]:
    digest, channels = _read_channels(*args.channels)

    if args.depth == 2:
        if len(channels) > 2:
            raise ChannelSpecError("depth 2 takes one or two channel files")
        rep = additivity_experiment(channels[0], channels[-1], cfg)  # one file pairs with itself
        return digest, [
            _result("capacity_1", round(rep.capacity_1, 9)),
            _result("capacity_2", round(rep.capacity_2, 9)),
            _result("capacity_sum", round(rep.capacity_sum, 9)),
            _result("conditional_best", round(rep.conditional_best, 9)),
            _result("product_strategy", round(rep.product_value, 9)),
            _result("upper_bound", round(rep.capacity_sum - rep.conditional_best, 9), 1e-4, rep.upper_bound_ok()),
            _result("lower_bound", round(rep.product_value - rep.capacity_sum, 9), 2e-3, rep.lower_bound_ok()),
        ]

    if len(channels) != 1:
        raise ChannelSpecError("depth 3 takes exactly one channel file")
    value, _, _ = best_conditional_information(channels * 3, cfg)  # first: it rejects a non-qubit output at once
    single = shannon_capacity(channels[0], cfg)
    bound = 3.0 * single.value
    return digest, [
        _result("single_copy_capacity", round(single.value, 9)),
        _result("conditional_best_depth3", round(value, 9)),
        _result("upper_bound", round(bound - value, 9), 2e-3, value <= bound + 2e-3),
    ]


def cmd_sweep(args, cfg: OptimizerConfig) -> tuple[str, list]:
    family = _FAMILIES[args.family]
    span = (args.stop - args.start) / args.step + 1e-12  # in steps, with the end slack
    if span >= MAX_SWEEP_POINTS:
        raise ChannelSpecError(f"--step {args.step} gives more than {MAX_SWEEP_POINTS} points")
    params = [round(args.start + i * args.step, 12) for i in range(math.floor(max(span, -1.0)) + 1)]

    header = ["param", "shannon", "holevo", "uep", "holevo_minus_shannon", "strict_gap"]
    rows = []
    for p in params:
        ch = family(p)
        row = {"param": p}
        for name, estimate in _ESTIMATORS.items():
            row[name] = estimate(ch, cfg).value if args.which in (name, "all") else float("nan")
        gap = row["holevo"] - row["shannon"]
        row["holevo_minus_shannon"] = gap
        row["strict_gap"] = int(gap > 1e-3) if np.isfinite(gap) else 0
        rows.append({k: _csv_num(row[k]) for k in header})

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    return _digest(f"{args.family}:{params}".encode()), [_result("rows", rows), _result("csv_path", args.csv or "")]


def _csv_num(v):
    if isinstance(v, float):
        return round(v, 9)
    return v


def cmd_channel_info(args, cfg: OptimizerConfig) -> tuple[str, list]:
    digest, (ch,) = _read_channels(args.channel)
    comp = dual_apply(ch, np.eye(ch.dim_out))  # sum K†K
    unital_dev = float(np.max(np.abs(apply(ch, np.eye(ch.dim_in)) - np.eye(ch.dim_out))))  # sum KK† - I
    return digest, [
        _result("dim_in", ch.dim_in),
        _result("dim_out", ch.dim_out),
        _result("kraus_count", len(ch.kraus)),
        _result("trace_preservation_deviation", float(np.max(np.abs(comp - np.eye(ch.dim_in))))),
        _result("unital_deviation", unital_dev),
    ]


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
    p.add_argument("--which", choices=[*_ESTIMATORS, "all"], default="all")
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
    p.add_argument("--which", choices=[*_ESTIMATORS, "all"], default="all")
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
    t0 = time.perf_counter()
    try:
        cfg = OptimizerConfig(
            restarts=args.restarts,
            max_iters=args.max_iters,
            tol=args.tol,
            seed=args.seed,
            ensemble_size_cap=args.ensemble_cap,
            povm_size_cap=args.povm_cap,
        )  # before any spec is read: a bad config exits 2 whatever the spec
        digest, results = args.func(args, cfg)
    except (ChannelSpecError, DimensionMismatchError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
    report = {
        "command": args.command,
        "channel_spec_digest": digest,
        "config": asdict(cfg),  # every OptimizerConfig field, in declaration order
        "results": results,
        "seed": args.seed,
        "wall_time": round(time.perf_counter() - t0, 3),
    }
    sys.stdout.write(json.dumps(report, indent=args.json_indent or None) + "\n")
    return EXIT_BOUND if any(entry.get("passed") is False for entry in results) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
