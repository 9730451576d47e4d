#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark: ``python3 perfbench/smoke.py`` from the repo root.

Runs one op of every workload untraced and traced, and checks that
* every end-to-end metric of BENCHMARK.json is emitted untraced, and every
  per-layer metric traced, each with its declared unit and a finite value;
* the tracer saw calls while installed and restored every binding it
  patched, in every chancap module and on every dataclass;
* ``--compare`` passes a result file against itself and flags a changed value.
An op whose output check fails is printed as a finding about chancap, not
counted against the benchmark.
Takes about a minute; exit code 0 when everything holds.
"""

from __future__ import annotations

import inspect
import json
import math
import sys

import run

SEED = 7


def bindings() -> dict:
    """Identity of every module attribute and dataclass ``__post_init__`` the tracer may patch."""
    from tracer import ALL_MODULES

    out = {}
    for modname in ALL_MODULES:
        for attr, val in vars(sys.modules[modname]).items():
            out[(modname, attr)] = id(val)
            if inspect.isclass(val) and "__post_init__" in vars(val):
                out[(modname, attr, "__post_init__")] = id(vars(val)["__post_init__"])
    return out


def main() -> int:
    run.load_chancap()
    from workloads import WORKLOADS

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    before = bindings()
    traced_names = {w["name"] for w in bench["workloads"]}
    for name in WORKLOADS:
        for trace in (0, 1) if name in traced_names else (0,):
            doc = run.run_workload(name, SEED, 0.0, bool(trace), min_ops=1)
            got = {k: (m["value"], m["unit"]) for k, m in doc["metrics"].items()}
            want = declared[trace]
            if set(got) != set(want):
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            for key, (value, unit) in got.items():
                if key in want and unit != want[key]:
                    problems.append(f"{name}: {key} unit {unit} != {want[key]}")
                if not math.isfinite(value):
                    problems.append(f"{name}: {key} = {value}")
            for op in doc["ops"]:
                if not op["ok"]:
                    print(f"note: {name} op {op['i']} failed its check ({op['note']}); a chancap finding")
            if trace and doc["metrics"]["linalg.calls"]["value"] <= 0:
                problems.append(f"{name}: the traced run recorded no linalg calls")
            if bindings() != before:
                problems.append(f"{name} trace {trace}: tracing left patched bindings behind")

    result = run.OUT / f"qubit-capacity-s{SEED}-t0.json"
    if run.compare(str(result), str(result), 0.0) != 0:
        problems.append("--compare flags drift between a file and itself")
    changed = json.loads(result.read_text())
    changed["ops"][0]["values"]["estimate"] += 1e-6
    drifted = run.OUT / "smoke-drifted.json"
    drifted.write_text(json.dumps(changed))
    if run.compare(str(result), str(drifted), 1e-9) != 1:
        problems.append("--compare missed a value change of 1e-6")

    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
