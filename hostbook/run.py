#!/usr/bin/env python3
"""Host book: wall-clock training benchmark for the spg-CNN repro.

    python hostbook/run.py                        # the full book
    python hostbook/run.py --workload W --seed N --seconds S --trace 0|1
    python hostbook/run.py --compare A.json B.json
    python hostbook/run.py --selftest

Load model: closed loop, one client -- SGD step n+1 is issued when step
n returns.  Each repetition runs in a fresh child process with BLAS
pinned to one thread.  ``--seconds`` sizes fixed step counts (the timed
steps of a run take about that long at the seed commit's speed); nothing
is time-boxed, so both sides of an A/B do identical work.  See README.md.

Process workers re-import ``__main__`` under ``spawn``: this module does
nothing at import time and keeps its top-level imports to the stdlib.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))
# A run leaves nothing behind but its result files: no __pycache__ here,
# and the children get PYTHONDONTWRITEBYTECODE (see child_env).
sys.dont_write_bytecode = True

import spec  # noqa: E402  (hostbook/ was just put on the path)


_SURVIVOR_GRACE_S = 3.0
_PROBE_TIMEOUT_S = 150.0


# -- children -------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(spec.BLAS_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    parts = [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    # The program's shm manifest defaults to /tmp; keep it in the checkout.
    env["REPRO_SHM_MANIFEST_DIR"] = str(RESULTS / ".shm-manifest")
    return env


def _shm_names() -> set:
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("repro-shm-*")} if shm.is_dir() else set()


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def spawn_child(job: dict, timeout_s: float) -> dict:
    """Run one child job in its own process group; never raises."""
    before = _shm_names()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(job)],
        stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
        start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        failure = None if proc.returncode == 0 else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        out, failure = "", f"timeout after {timeout_s:.0f}s"
    # Anything still in the child's process group outlived it (the
    # resource tracker exits on its own once it sees the child gone).
    deadline = time.monotonic() + _SURVIVOR_GRACE_S
    while (survivors := _group_alive(proc.pid)) and time.monotonic() < deadline:
        time.sleep(0.02)
    if survivors:
        _kill_group(proc)
    leaked = sorted(_shm_names() - before)
    if failure or survivors or leaked:
        _reap_shm()
    record: dict = {}
    if failure is None:
        try:
            record = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            failure = "child printed no result"
    record["spawned_mono"] = spawned
    record["child_failure"] = failure
    record["parent_saw"] = {"survivors": survivors, "shm_leaked": leaked}
    return record


def _reap_shm() -> None:
    """Reclaim segments of dead owners through the program's own janitor."""
    subprocess.run(
        [sys.executable, "-c",
         "from repro.runtime.shm import reap_orphans; reap_orphans()"],
        env=child_env(), cwd=str(ROOT), timeout=60, check=False)


def _timeout_for(w: spec.Workload, warm: int, timed: int) -> float:
    expected = 15.0 + (warm + timed) * w.step_ms / 1e3
    return 3.0 * expected


# -- one workload's numbers -------------------------------------------------------

def _failed_steps(rec: dict) -> int:
    """Steps that raised, were skipped, or ran after a quarantine."""
    attempted = rec.get("attempted", 0)
    if rec.get("child_failure") or "wall_s" not in rec:
        return attempted
    failed = attempted - rec["completed"] + rec["skipped"]
    failed += rec.get("run_report", {}).get("skipped_batches", 0)
    at = rec["quarantine_at"]
    if at is not None:
        failed += max(0, rec["warm"] + rec["completed"] - max(at, rec["warm"]))
    return min(attempted, failed)


def _rep_metrics(w: spec.Workload, rec: dict) -> dict:
    images = rec["timed"] * w.batch
    intervals = rec["intervals_ms"]
    return {
        "setup_s": rec["stamps"]["ready_mono"] - rec["spawned_mono"],
        "images_per_s": images / rec["wall_s"],
        "step_ms_p50": statistics.median(intervals),
        "step_ms_p90": _p90(intervals),
        "cpu_s_per_kimg":
            (rec["cpu_self_s"] + rec["cpu_workers_s"]) * 1e3 / images,
        "peak_rss_mb": rec["rss_self_mb"] + rec["rss_workers_mb"],
    }


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def summarise(w: spec.Workload, reps: list, traced: dict | None) -> dict:
    """End-to-end metrics of one workload from its untraced repetitions.

    The traced repetition counts towards ``problems``, ``attempted`` and
    ``failed`` only: no end-to-end metric comes from it.
    """
    good = [r for r in reps if "wall_s" in r and not r.get("child_failure")]
    problems = []
    every = reps + ([traced] if traced is not None else [])
    for i, rec in enumerate(every):
        if rec.get("child_failure"):
            problems.append(f"rep {i}: {rec['child_failure']}")
        if rec.get("raised"):
            problems.append(f"rep {i}: raised {rec['raised']}")
        problems += [f"rep {i}: {f}" for f in rec.get("check_failures", ())]
        hygiene = rec.get("hygiene", {})
        for key in ("quarantined", "shm_leaked", "orphan_procs"):
            if hygiene.get(key):
                problems.append(f"rep {i}: {key} {hygiene[key]}")
        saw = rec["parent_saw"]
        if saw["survivors"] or saw["shm_leaked"]:
            problems.append(f"rep {i}: outlived the child: {saw}")
    if len(good) < len(reps) or (traced is not None and "trace" not in traced):
        problems.append("a repetition produced no timings")
    attempted = sum(r.get("attempted", 0) for r in every) or 1
    failed = sum(_failed_steps(r) for r in every)
    end_to_end: dict = {}
    if good:
        per_rep = [_rep_metrics(w, r) for r in good]
        pooled = [x for r in good for x in r["intervals_ms"]]
        for m in spec.END_TO_END[:-1]:
            rep_values = [p[m.name] for p in per_rep]
            value = statistics.median(rep_values)
            if m.name == "step_ms_p50":
                value = statistics.median(pooled)
            elif m.name == "step_ms_p90":
                value = _p90(pooled)
            end_to_end[m.name] = {"value": value, "unit": m.unit,
                                  "n": len(pooled) if "step_ms" in m.name
                                  else len(rep_values), "reps": rep_values}
    # Each repetition read the host at both ends of its timed region.
    host = {name: statistics.median(r["host"][name] for r in good)
            for name in (good[0]["host"] if good else ())}
    return {"end_to_end": end_to_end, "host": host, "problems": problems,
            "attempted": attempted, "failed": failed}


def _finish(result: dict) -> None:
    """Fold check failures into ``ok`` and ``step_fail_share``."""
    ok = not result["problems"]
    if not ok:
        result["failed"] = result["attempted"]
    result["ok"] = ok and result["failed"] == 0
    m = spec.END_TO_END[-1]
    result["end_to_end"][m.name] = {
        "value": result["failed"] / result["attempted"], "unit": m.unit,
        "n": result["attempted"], "reps": []}


def pick_hit_share(deployed: dict, table: dict, mnist: bool) -> float:
    """Share of layer x phase picks within 10% of the fastest probed engine.

    ``deployed`` maps ``conv_in.fp`` etc. to the engine the traced run
    actually had on the layer.  BP cost is backward-data plus
    backward-weights at the sparsity that layer sees in training (0.85
    on the input conv, 0.98 on the deep one).
    """
    hits = picks = 0
    for key, engine in deployed.items():
        role, phase = key.split(".")
        cells = table["mnist" if mnist else role]
        if phase == "fp":
            costs = cells["fp"]
        else:
            tag = "s98" if role == "conv_deep" else "s85"
            costs = {e: cells[f"bd.{tag}"][e] + cells[f"dw.{tag}"][e]
                     for e in cells[f"bd.{tag}"]}
        if engine not in costs:
            continue
        picks += 1
        hits += costs[engine] <= 1.10 * min(costs.values())
    return hits / picks if picks else 0.0


def per_layer(w: spec.Workload, traced: dict, probes: dict | None) -> dict:
    """All 62 per-layer metrics for one workload; 0.0 where one does not
    apply (``conv_deep.*`` on MNIST, ``core.*`` without a tuner)."""
    values = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
    trace = traced.get("trace", {})
    values.update(trace.get("metrics", {}))
    if "wall_s" in traced:
        stamps = traced["stamps"]
        workers = traced["workers"]
        values.update({
            "setup.import_ms": (stamps["enter_mono"] - traced["spawned_mono"]
                                + stamps["imported_pc"] - stamps["enter_pc"])
            * 1e3,
            "setup.build_ms":
                (stamps["first_step_pc"] - stamps["imported_pc"]) * 1e3,
            "setup.warmup_ms":
                (stamps["warm_end_pc"] - stamps["first_step_pc"]) * 1e3,
            "runtime.parent_cpu_share":
                traced["cpu_self_s"] / traced["wall_s"],
            "runtime.worker_cpu_share":
                traced["cpu_workers_s"] / (traced["wall_s"] * workers)
                if workers else 0.0,
            "runtime.shm_leaked": float(
                len(traced["hygiene"]["shm_leaked"])
                + len(traced["parent_saw"]["shm_leaked"])),
            "runtime.orphan_procs": float(
                len(traced["hygiene"]["orphan_procs"])
                + traced["parent_saw"]["survivors"]),
        })
    if probes:
        values.update(probes["metrics"])
        values["core.pick_hit_share"] = pick_hit_share(
            trace.get("deployed", {}), probes["engine_table"],
            mnist=w.net == "mnist")
    units = {m.name: m.unit for m in spec.PER_LAYER}
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in spec.PER_LAYER_NAMES}


# -- running a book -----------------------------------------------------------------

def run_book(names: list, seed: int, seconds: float, *, reps: int,
             traced: bool, probe_job: dict | None, scale: float = 1.0,
             pool_sleep_ms: dict | None = None, log=None) -> dict:
    """Interleaved repetitions, then traced repetitions, then probes."""
    log = log or (lambda _msg: None)
    started = time.monotonic()
    workloads = [spec.WORKLOADS[n] for n in names]
    sleep = pool_sleep_ms or {}

    def job_for(w, **extra):
        warm = w.warm_steps
        timed = w.timed_for(seconds)
        job = {"kind": "rep", "workload": w.name, "seed": seed, "warm": warm,
               "timed": timed, "scale": scale, "traced": False,
               "pool_sleep_ms": sleep.get(w.name, 0.0), **extra}
        return job, _timeout_for(w, warm, timed)

    def run_child(label, job, timeout):
        began = time.monotonic()
        record = spawn_child(job, timeout)
        log(f"{label}: {time.monotonic() - began:.1f}s"
            + (f" FAILED {record['child_failure']}"
               if record["child_failure"] else ""))
        return record

    records: dict = {w.name: [] for w in workloads}
    order = []
    for r in range(reps):
        for w in workloads:
            job, timeout = job_for(w, check=(r == 0))
            records[w.name].append(run_child(
                f"rep {r} {w.name} {job['warm']}+{job['timed']} steps",
                job, timeout))
            order.append(w.name)
    traces: dict = {}
    if traced:
        for w in workloads:
            # With no untraced repetition the traced one carries the checks.
            job, timeout = job_for(w, traced=True, check=(reps == 0))
            traces[w.name] = run_child(f"traced {w.name}", job, timeout)
    probes = None
    if probe_job is not None:
        probes = run_child("probes", {"kind": "probes", "scale": scale,
                                      **probe_job}, _PROBE_TIMEOUT_S)
        if "metrics" not in probes:
            probes = {"failure": probes["child_failure"] or "no metrics"}

    out: dict = {}
    for w in workloads:
        t = traces.get(w.name)
        result = summarise(w, records[w.name], t)
        result["why"] = w.why
        result["samples"] = {
            "intervals_ms": [r.get("intervals_ms", []) for r in records[w.name]],
            "losses": [r.get("losses", []) for r in records[w.name]],
        }
        result["run_reports"] = [r.get("run_report", {})
                                 for r in records[w.name]]
        if t is not None:
            if probes is not None and "failure" in probes:
                result["problems"].append(f"probes: {probes['failure']}")
            result["per_layer"] = per_layer(
                w, t, probes if probes and "metrics" in probes else None)
            result["traced"] = {
                k: t.get(k) for k in ("intervals_ms", "step_ms", "wall_s",
                                      "warm", "timed", "traced_rows")}
            result["traced"].update(
                {k: t.get("trace", {}).get(k)
                 for k in ("accounting_gap", "unattributed_ms", "deployed",
                           "roles", "pool_forwards_per_step")})
            result["spans"] = t.get("spans", [])
        out[w.name] = result
    for result in out.values():
        _finish(result)
    return {
        "schema": spec.SCHEMA,
        "config": {"seed": seed, "seconds": seconds, "scale": scale,
                   "repetitions": reps, "order": order,
                   "pool_sleep_ms": sleep},
        "workloads": out,
        "probes": {k: v for k, v in (probes or {}).items()
                   if k in ("metrics", "engine_table", "llc_bytes",
                            "stream_array_bytes", "section_seconds")},
        "wall_s": time.monotonic() - started,
    }


# -- provenance, output -----------------------------------------------------------------

def provenance(argv: list) -> dict:
    import platform

    os.environ.update(spec.BLAS_ENV)
    import numpy as np

    def git(*args):
        if not (ROOT / ".git").exists():
            return None
        done = subprocess.run(["git", *args], cwd=str(ROOT), text=True,
                              capture_output=True, check=False)
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    status = git("status", "--porcelain")
    config = np.show_config(mode="dicts")
    return {
        "schema": spec.SCHEMA,
        "argv": argv,
        "git_rev": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "host": {"cpu": cpu, "nproc": os.cpu_count(),
                 "kernel": platform.release(), "machine": platform.machine()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}),
        "blas_env": spec.BLAS_ENV,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_book(book: dict, out=sys.stdout) -> None:
    for name, result in book["workloads"].items():
        print(f"\n== {name}  ok={result['ok']}  "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=out)
        for problem in result["problems"]:
            print(f"   PROBLEM {problem}", file=out)
        for metric, cell in result["end_to_end"].items():
            print(f"   {metric:<28s} {cell['value']:>12.4f} {cell['unit']:<8s}"
                  f" n={cell['n']}", file=out)
        for metric, cell in result.get("per_layer", {}).items():
            print(f"   {metric:<28s} {cell['value']:>12.4f} {cell['unit']}",
                  file=out)
        if result.get("traced"):
            gap = result["traced"].get("accounting_gap")
            if gap is not None:
                print(f"   (trace accounting gap {gap:.2%} of timed wall)",
                      file=out)
    print(f"\nbook wall {book['wall_s']:.1f}s", file=out)


_NUMBER_LIST = re.compile(r"\[\s+((?:-?[0-9][0-9.eE+-]*,?\s+)+)\]")


def write_book(book: dict, path: Path) -> None:
    """The result file, with span lists split out as trace files."""
    path.parent.mkdir(parents=True, exist_ok=True)
    for name, result in book["workloads"].items():
        spans = result.pop("spans", None)
        if spans:
            trace_path = path.parent / f"trace_{name}.json"
            trace_path.write_text(json.dumps(
                {"schema": spec.SCHEMA, "workload": name, "spans": spans}))
    text = json.dumps(book, indent=1)
    # One line per list of numbers: the raw samples are thousands long.
    text = _NUMBER_LIST.sub(
        lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    path.write_text(text + "\n")


# -- modes ----------------------------------------------------------------------------------

def _log(msg: str) -> None:
    print(f"[hostbook] {msg}", file=sys.stderr, flush=True)


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("hostbook: no src/repro beside hostbook/ -- nothing to measure",
              file=sys.stderr)
        raise SystemExit(2)


#: Sizes of the probe pass (~18 s): calls per engine-table cell, warm +
#: timed steps of each backend x scheduler training probe, and
#: telemetry on/off step pairs.
_PROBE_JOB = {"reps": 3, "runtime_steps": [2, 10], "telemetry_pairs": 8}


def driver_line(result: dict, trace: int) -> dict:
    """The contract's last line of standard output for one workload."""
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {n: result["end_to_end"][n] for n in spec.DRIVER_END_TO_END
                   if n in result["end_to_end"]}
    return {"correct": result["ok"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": c["value"], "unit": c["unit"]}
                        for n, c in metrics.items()}}


def mode_driver(args) -> int:
    """The contract: one workload, one JSON object on the last line.

    ``--trace 0`` runs the untraced repetitions and prints the
    end-to-end metrics; ``--trace 1`` runs the traced repetition and the
    probe pass and prints the per-layer metrics.
    """
    _require_program()
    if args.trace:
        book = run_book([args.workload], args.seed, args.seconds, reps=0,
                        traced=True, probe_job=_PROBE_JOB,
                        log=_log)
    else:
        book = run_book([args.workload], args.seed, args.seconds,
                        reps=spec.REPETITIONS, traced=False, probe_job=None,
                        log=_log)
    book["provenance"] = provenance(sys.argv[1:])
    result = book["workloads"][args.workload]
    print_book(book, out=sys.stderr)
    write_book(book, RESULTS / f"last_{args.workload}_trace{args.trace}.json")
    print(json.dumps(driver_line(result, args.trace)))
    return 0 if result["ok"] else 1


def mode_book(args) -> int:
    _require_program()
    names = list(spec.WORKLOADS)
    skipped = {}
    if (os.cpu_count() or 1) < 2:
        names.remove("cifar_process")
        skipped["cifar_process"] = "nproc < 2"
    book = run_book(names, args.seed, args.seconds, reps=spec.REPETITIONS,
                    traced=True, probe_job=_PROBE_JOB, log=_log)
    book["provenance"] = provenance(sys.argv[1:])
    book["skipped"] = skipped
    print_book(book)
    path = Path(args.out) if args.out else RESULTS / "latest.json"
    write_book(book, path)
    print(f"wrote {path}")
    return 0 if all(r["ok"] for r in book["workloads"].values()) else 1


def mode_child(payload: str) -> int:
    job = json.loads(payload)
    if job["kind"] == "probes":
        from probes import run_probes

        record = run_probes(job)
    else:
        from child import run_repetition

        record = run_repetition(job)
    print(json.dumps(record))
    return 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.FULL_SECONDS,
                        help="sizes the fixed step counts (full book = "
                        f"{spec.FULL_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file of the full book")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return mode_child(args.child)
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if args.selftest:
        from selftest import selftest

        return selftest(run_book, driver_line)
    if args.workload:
        return mode_driver(args)
    return mode_book(args)


if __name__ == "__main__":
    sys.exit(main())
