"""``run.py --selftest``: the book can see a planted regression.

Tiny sizes (quarter-width nets, the minimum step counts), well under
30 s.  Not a tier-1 test -- ``testpaths = ["tests"]`` never collects
this directory -- because it is wall-clock by construction.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import spec
from compare import judge

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_SCALE = 0.25
_SECONDS = 1.0          # far below the floors: every count is its minimum
_PLANTED = "cifar_inline"
_UNTOUCHED = "mnist_inline"
_TINY_PROBES = {"reps": 1, "runtime_steps": [1, 3], "telemetry_pairs": 2}
#: The planted slowdown, as a share of a step: twice the bound it must
#: break (the issue's 20% against a 10% bound, at this host's 25% bound).
_PLANT = 2.0 * next(m.bound for m in spec.END_TO_END
                    if m.name == "step_ms_p50")


def check_vocabulary(bench: dict) -> list[str]:
    """``BENCHMARK.json`` and ``spec`` name the same things."""
    failures = []
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    want = {m.name: (m.unit, m.better, m.bound) for m in spec.END_TO_END
            if m.name in spec.DRIVER_END_TO_END}
    got = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in bench["end_to_end"]}
    if got != want:
        failures.append(f"end_to_end differs: {got} != {want}")
    want = {m.name: (m.unit, m.better) for m in spec.PER_LAYER}
    got = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if got != want:
        failures.append("per_layer differs from spec.PER_LAYER: "
                        f"{sorted(set(got) ^ set(want))}")
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    failures += [f"bad name {n!r}" for n in names if not _NAME.fullmatch(n)]
    failures += [f"name used twice: {n}" for n in set(names)
                 if names.count(n) > 1]
    return failures


def check_emitted(bench: dict, book: dict, driver_line) -> list[str]:
    """Every declared name comes out exactly once per workload."""
    failures = []
    declared = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    for name, result in book["workloads"].items():
        for trace, want in declared.items():
            # A JSON object cannot repeat a key, so equal sorted lists
            # mean "each exactly once".
            got = list(driver_line(result, trace)["metrics"])
            if sorted(got) != sorted(want):
                failures.append(
                    f"{name} --trace {trace}: emitted names differ: "
                    f"{sorted(set(got) ^ set(want))}")
    return failures


def selftest(run_book, driver_line) -> int:
    """``run_book`` and ``driver_line`` are run.py's (it is ``__main__``)."""
    failures: list[str] = []
    notes: list[str] = []
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    failures += check_vocabulary(bench)

    names = [_PLANTED, _UNTOUCHED]
    clean = run_book(names, 0, _SECONDS, reps=2, traced=True,
                     probe_job=_TINY_PROBES, scale=_SCALE)
    for name, result in clean["workloads"].items():
        failures += [f"clean {name}: {p}" for p in result["problems"]]
    if failures:
        return _report(failures, notes)
    failures += check_emitted(bench, clean, driver_line)
    for name, result in clean["workloads"].items():
        gap = result["traced"]["accounting_gap"]
        notes.append(f"{name}: traced self times within {gap:.2%} of the "
                     "recorder's step wall")
        if gap > 0.05:
            failures.append(f"{name}: trace accounting gap {gap:.1%} > 5%")

    # Plant the delay into the max-pool forwards of one workload.
    planted = clean["workloads"][_PLANTED]
    p50 = planted["end_to_end"]["step_ms_p50"]["value"]
    pools = planted["traced"]["pool_forwards_per_step"]
    sleep_ms = _PLANT * p50 / pools
    slowed = run_book(names, 0, _SECONDS, reps=2, traced=True, probe_job=None,
                      scale=_SCALE, pool_sleep_ms={_PLANTED: sleep_ms})
    before = planted["per_layer"]["nn.pool_ms"]["value"]
    after = slowed["workloads"][_PLANTED]["per_layer"]["nn.pool_ms"]["value"]
    notes.append(f"planted +{_PLANT:.0%} of a step as {sleep_ms:.3f} ms x "
                 f"{pools:g} pool forwards on "
                 f"{_PLANTED}: nn.pool_ms {before:.3f} -> {after:.3f} ms")
    if after - before < 0.5 * _PLANT * p50:
        failures.append("nn.pool_ms did not take up the planted delay")

    # The verdict rule itself: the host check (``noisy-host``) is not
    # under test here and would only make this depend on the machine.
    verdicts = {
        (name, m.name): judge(m, clean["workloads"][name]["end_to_end"][m.name],
                              slowed["workloads"][name]["end_to_end"][m.name]
                              )["verdict"]
        for name in names for m in spec.END_TO_END}
    notes.append(f"compare: {_PLANTED} step_ms_p50 "
                 f"{verdicts[_PLANTED, 'step_ms_p50']}, {_UNTOUCHED} "
                 f"step_ms_p50 {verdicts[_UNTOUCHED, 'step_ms_p50']}")
    if verdicts[_PLANTED, "step_ms_p50"] != "regressed":
        failures.append("--compare did not call the planted slowdown "
                        "regressed on step_ms_p50")
    if verdicts[_UNTOUCHED, "step_ms_p50"] != "ok":
        failures.append(f"--compare called the untouched {_UNTOUCHED} "
                        f"{verdicts[_UNTOUCHED, 'step_ms_p50']}")
    if any(v == "regressed" for (w, _), v in verdicts.items()
           if w == _UNTOUCHED):
        failures.append(f"--compare called the untouched {_UNTOUCHED} "
                        "regressed")
    return _report(failures, notes)


def _report(failures: list[str], notes: list[str]) -> int:
    for note in notes:
        print(f"selftest: {note}")
    for failure in failures:
        print(f"selftest: FAIL {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0
