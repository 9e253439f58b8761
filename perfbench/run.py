#!/usr/bin/env python3
"""Benchmark of cvarsafe on three workloads, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload baseline-pipeline --seed 1 \\
        --seconds 55 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``baseline-pipeline``
and ``deploy-mc``. The program is imported from ``src/`` of
the checkout; without it the benchmark exits nonzero and prints no result.

Set-up makes the workload's inputs from ``--seed``; it is timed three times
(this process and two fresh ones) and ``setup_s`` is the median, from the
start of this script to ready inputs. The timed phase then repeats passes
over the workload for up to ``--seconds``, at least one pass; ``total_s``
is the median pass wall time and ``peak_rss_mb`` the peak resident set of
this process. Every pass's answers are checked against ``reference.json``;
an operation (CLI command or oracle instance) that exits nonzero, raises
or gives a wrong answer counts as failed.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` one untraced pass is followed by traced passes for
``--seconds``, and the result holds the per-layer metrics of
``tracing.py``, per pass, with the tracing overhead (traced minus untraced
pass time).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record with the machine,
versions, sizes, per-command times, per-function spans, artifact hashes
and health values goes to ``perfbench/records/``.

``--record-reference`` runs set-up and one pass and stores the answers in
``reference.json``; run it once per workload when the answers are meant to
change.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before the imports
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("baseline-pipeline", "deploy-mc")
SETUP_SAMPLES = 3


def import_program():
    """Import cvarsafe from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cvarsafe
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cvarsafe from {src}: {exc}")
    if Path(cvarsafe.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: cvarsafe was imported from "
                         f"{cvarsafe.__file__}, not from {src}")
    return cvarsafe


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's answers in reference.json")
    return p.parse_args(argv)


def worker_threads() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_commit():
    """The checked-out commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_sample(args) -> float:
    """Set-up time of a fresh process, measured by that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed_passes(workload, seconds, workdir, tag, tracer=None):
    """Repeat passes while another one, as long as the last, would end
    within ``seconds`` of the start; at least one pass.

    Stopping before the limit rather than after it keeps the run length
    near ``seconds`` whatever the pass length, so the pass count of a
    workload does not flip with small changes in its speed.
    """
    passes = []
    start = time.perf_counter()
    elapsed = last = 0.0
    while not passes or elapsed + last <= seconds:
        out = workdir / f"{tag}{len(passes)}"
        if tracer is not None:
            tracer.install()
        try:
            cpu0 = time.process_time()
            passes.append(workload.run_pass(str(out)))
            passes[-1].cpu_s = time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        last = time.perf_counter() - start - elapsed
        elapsed += last
    return passes


def load_reference(workload_name):
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload_name, {})


def record_reference(workload, workdir) -> int:
    result = timed_passes(workload, 0.0, workdir, "ref")[0]
    errors = [op for op in result.ops if op[2]]
    if errors:
        print(f"perfbench: not recording a failed run: {errors}", file=sys.stderr)
        return 1
    data = {}
    if REFERENCE.is_file():
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data[workload.name] = {"seed": workload.seed, "scale": workload.scale.__dict__,
                           "setup_answers": workload.setup_answers,
                           "answers": result.answers, "hashes": result.hashes}
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"reference for {workload.name} written to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    cvarsafe = import_program()
    from workloads import FULL, WORKLOADS

    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](FULL, args.seed, str(workdir),
                                            worker_threads())
        workload.setup()
        own_setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        if args.record_reference:
            return record_reference(workload, workdir)
        return measure(args, workload, workdir, own_setup_s, cvarsafe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir, own_setup_s, cvarsafe) -> int:
    import numpy
    import scipy
    import tracing

    setup_samples = [own_setup_s]
    if not args.trace:
        setup_samples += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    reference = load_reference(workload.name)
    problems = []
    if reference.get("scale") != workload.scale.__dict__:
        problems.append("reference.json has no answers for this workload and scale")
    else:
        problems += workload.check_setup(reference["setup_answers"])

    # A traced run makes one untraced pass, for the tracing overhead.
    plain = timed_passes(workload, 0.0 if args.trace else args.seconds,
                         workdir, "pass")
    traced, tracer = [], None
    if args.trace:
        tracer = tracing.Tracer()
        traced = timed_passes(workload, args.seconds, workdir, "traced", tracer)
    passes = plain + traced
    if not problems:
        for result in passes:
            workload.check(result, reference["answers"])
    for i, result in enumerate(passes[1:], 1):
        if result.hashes != passes[0].hashes:
            problems.append(f"pass {i} artifacts differ from pass 0")

    attempted = sum(op[1] for p in passes for op in p.ops)
    failed = sum(op[1] for p in passes for op in p.ops if op[2])
    total_s = statistics.median(p.seconds for p in plain)
    if args.trace:
        traced_total_s = statistics.median(p.seconds for p in traced)
        values = tracing.layer_metrics(tracer, len(traced),
                                       sum(p.seconds for p in traced))
        values.update({"trace.total_s": traced_total_s,
                       "trace.untraced_total_s": total_s,
                       "trace.overhead_s": traced_total_s - total_s})
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "total_s": total_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"backend": cvarsafe.backend(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                    "threads": workload.threads, "commit": git_commit()},
        "sizes": workload.sizes(),
        "setup_samples_s": setup_samples,
        "passes": [{"traced": i >= len(plain), "seconds": p.seconds,
                    "cpu_s": p.cpu_s,
                    "command_s": p.command_s, "hashes": p.hashes,
                    "errors": [op for op in p.ops if op[2]]}
                   for i, p in enumerate(passes)],
        # Informational: rollouts and ties may change bytes without changing
        # any checked answer.
        "reference_hashes": reference.get("hashes"),
        "health": workload.health(passes[-1]),
        "problems": problems,
        "error_rate": failed / attempted if attempted else None,
        "metrics": metrics,
    }
    if tracer is not None:
        record["spans"] = tracing.span_table(tracer, len(traced))
    records = BENCH_DIR / "records"
    records.mkdir(exist_ok=True)
    path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for p in passes:
        for op in p.ops:
            if op[2]:
                print(f"perfbench: {op[0]} failed: {op[2]}", file=sys.stderr)

    correct = failed == 0 and not problems
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
