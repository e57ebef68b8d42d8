"""``run.py --compare A.json B.json``: is B worse than A beyond its bound?

One row per (end-to-end metric, workload), judged by the bounds in
``spec.END_TO_END``:

``ok``          B's median is no worse than A's by more than the bound.
``regressed``   it is worse by more than the bound.
``unresolved``  the repetitions of one side spread wider than the bound
                and the two sides' repetitions are not strictly ordered,
                so the medians cannot carry a verdict either way.
``noisy-host``  a ``host.*`` reading moved by more than 10% between the
                files: the machine changed, not (only) the code.  Each
                workload's repetitions carry their own readings (taken at
                both ends of the timed region) and judge that workload's
                rows; the probe pass's readings judge every row.  Run
                both sets again.
"""

from __future__ import annotations

import json
import statistics
import sys

import spec


def worsening(metric: spec.EndToEnd, a: float, b: float) -> float:
    """How much worse B reads than A: a share of A, positive = worse.

    ``step_fail_share`` is 0 on a healthy run, so it is compared as an
    absolute difference.
    """
    if metric.bound == 0.0 or a == 0.0:
        delta = b - a
    else:
        delta = (b - a) / abs(a)
    return delta if metric.better == "lower" else -delta


def spread(cell: dict) -> float:
    """Range of the repetitions as a share of their median."""
    reps = cell.get("reps") or []
    if len(reps) < 2:
        return 0.0
    return (max(reps) - min(reps)) / abs(statistics.median(reps))


def strictly_ordered(a_reps: list, b_reps: list) -> bool:
    """Every repetition of one side reads below every one of the other."""
    if not a_reps or not b_reps:
        return False
    return max(a_reps) < min(b_reps) or max(b_reps) < min(a_reps)


def judge(metric: spec.EndToEnd, a: dict, b: dict) -> dict:
    """Verdict for one (metric, workload) row from the two files' cells."""
    worse = worsening(metric, a["value"], b["value"])
    wide = max(spread(a), spread(b))
    if (metric.bound > 0.0 and wide > metric.bound
            and not strictly_ordered(a.get("reps"), b.get("reps"))):
        verdict = "unresolved"
    elif worse > metric.bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {"a": a["value"], "b": b["value"], "worse": worse,
            "spread": wide, "verdict": verdict}


def host_shift(a: dict, b: dict) -> dict:
    """Relative move of each ``host.*`` reading both sides carry."""
    return {name: b[name] / a[name] - 1.0 for name in spec.HOST_METRICS
            if name in a and name in b and a[name]}


def _moved(shifts: dict) -> bool:
    return any(abs(s) > spec.HOST_SHIFT for s in shifts.values())


def compare_books(book_a: dict, book_b: dict) -> dict:
    shifts = {"probes": host_shift(book_a.get("probes", {}).get("metrics", {}),
                                   book_b.get("probes", {}).get("metrics", {}))}
    rows = []
    for name in spec.WORKLOADS:
        wa = book_a["workloads"].get(name)
        wb = book_b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        shifts[name] = host_shift(wa.get("host", {}), wb.get("host", {}))
        noisy = _moved(shifts["probes"]) or _moved(shifts[name])
        for metric in spec.END_TO_END:
            ca = wa["end_to_end"].get(metric.name)
            cb = wb["end_to_end"].get(metric.name)
            if ca is None or cb is None:
                # A workload that produced no timing has failed: its
                # step_fail_share row (always present) says so.
                continue
            row = judge(metric, ca, cb)
            row.update(workload=name, metric=metric.name, unit=metric.unit,
                       bound=metric.bound)
            if noisy:
                row["verdict"] = "noisy-host"
            rows.append(row)
    return {"rows": rows, "host_shift": shifts}


def print_comparison(result: dict, out=sys.stdout) -> None:
    print(f"{'workload':<14s} {'metric':<16s} {'A':>12s} {'B':>12s} "
          f"{'worse':>8s} {'bound':>7s} {'spread':>7s}  verdict", file=out)
    for r in result["rows"]:
        if r["bound"] > 0.0:
            worse, bound = f"{r['worse']:+8.1%}", f"{r['bound']:7.0%}"
        else:
            worse, bound = f"{r['worse']:+8.4f}", "    any"
        print(f"{r['workload']:<14s} {r['metric']:<16s} {r['a']:>12.4f} "
              f"{r['b']:>12.4f} {worse} {bound} {r['spread']:>7.1%}  "
              f"{r['verdict']}", file=out)
    for where, shifts in result["host_shift"].items():
        if not shifts:
            print(f"host ({where}): no reading in both files", file=out)
            continue
        moved = ", ".join(f"{name} {shift:+.1%}"
                          for name, shift in shifts.items())
        print(f"host ({where}): {moved}"
              + ("  -> noisy-host, run both sets again"
                 if _moved(shifts) else ""), file=out)
    counts: dict = {}
    for r in result["rows"]:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("rows: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())),
          file=out)


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison; exit code 1 when any row regressed."""
    books = []
    for path in (path_a, path_b):
        with open(path) as handle:
            book = json.load(handle)
        if book.get("schema") != spec.SCHEMA:
            print(f"hostbook: {path} is not a {spec.SCHEMA} result file",
                  file=sys.stderr)
            return 2
        books.append(book)
    result = compare_books(*books)
    print_comparison(result)
    return 1 if any(r["verdict"] == "regressed" for r in result["rows"]) else 0
