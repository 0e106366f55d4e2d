"""Record a BENCH_*.json entry: the benchmark's workloads, one round per
child process, on this tree and optionally on another commit.

    python3 tools/bench_record.py --out BENCH_<n>.json --runs 10 --against HEAD~1

Each run is ``python3 perfbench/run.py --workload W --seed s --seconds 0
--trace 0`` in a fresh process. ``--seconds 0`` stops after exactly one
round, so ``peak_rss_mb`` is that round's and does not depend on how many
rounds fit into a time budget. Run i uses seed ``--first-seed`` + i, starts
the workload order at workload i (mod their count) and, with ``--against``,
runs the two sides of each pair in alternating order. The other commit runs
from a ``git archive`` export of it in a temporary directory, with its own
``perfbench/``.

Run i also runs ``python -m contragp.cli reproduce-oscillator --quiet
--timings <file>`` once per side, in the same alternating order, on the
default config, with the timings file outside ``--out``.

The output gives, per workload and side, every end-to-end metric of
BENCHMARK.json as median, quartiles and run count, each run's attempted and
failed operation counts and metric values, and, with ``--against``, the
pairs the tree won per metric. Per side it gives the median and quartiles
of the reproduction's wall time, child process start-up included, and of
each of its five stages' CPU times. It also records the commits, the
``src/contragp`` line counts, the Python and NumPy versions, the BLAS
thread setting and the CPU count.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")}


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          check=True).stdout


def export(ref, directory):
    """The files of commit ``ref`` written under ``directory``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", ref))) as tar:
        tar.extractall(directory, filter="data")


def src_lines(root):
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((root / "src" / "contragp").glob("*.py")))


def run_once(root, workload, seed):
    """The parsed last stdout line of one one-round benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env={**os.environ, **BLAS}, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def reproduce_once(root, directory):
    """Wall seconds of one ``reproduce-oscillator`` child process run from
    the source of ``root``, and its ``--timings``, ``{"wall_s", "stages":
    {stage: {"wall_s", "cpu_s"}}}``.  Its ``--out`` and timings file go
    under ``directory``."""
    out, timings = directory / "out", directory / "timings.json"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-m", "contragp.cli", "reproduce-oscillator",
           "--out", str(out), "--quiet", "--timings", str(timings)]
    env = {**os.environ, **BLAS, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env=env, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return {"wall_s": wall, "stages": json.loads(timings.read_text())}


def reproduce_record(runs):
    """Median, quartiles and count of the wall time and of each stage's CPU
    time over runs of :func:`reproduce_once`."""
    return {"wall_s": summary([r["wall_s"] for r in runs]),
            "stage_cpu_s": {stage: summary([r["stages"][stage]["cpu_s"]
                                            for r in runs])
                            for stage in runs[0]["stages"]}}


def summary(values):
    """Median, quartiles and count of one metric's runs."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values)}


def side_record(runs, metrics):
    return {"metrics": {m["name"]: {**summary([r["metrics"][m["name"]]["value"]
                                               for r in runs]),
                                    "unit": m["unit"]} for m in metrics},
            "runs": [{"seed": r["seed"], "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"],
                      "values": {m["name"]: r["metrics"][m["name"]]["value"]
                                 for m in metrics}}
                     for r in runs]}


def pairs_won(tree, other, metrics):
    """Per metric, the pairs in which the tree's run beat the other's."""
    won = {}
    for m in metrics:
        sign = 1 if m["better"] == "lower" else -1
        won[m["name"]] = sum(
            sign * (a["metrics"][m["name"]]["value"]
                    - b["metrics"][m["name"]]["value"]) < 0
            for a, b in zip(tree, other))
    return won


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--runs", type=int, default=10,
                   help="runs per workload and side (default 10)")
    p.add_argument("--first-seed", type=int, default=1,
                   help="seed of the first run (default 1)")
    p.add_argument("--against", metavar="REF",
                   help="also run commit REF, pair by pair with this tree")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    roots = {"tree": ROOT}
    scratch = Path(tempfile.mkdtemp(prefix="bench_record_"))
    try:
        if args.against:
            roots["against"] = scratch / "against"
            export(args.against, roots["against"])
        lines = {side: src_lines(root) for side, root in roots.items()}
        results = {w: {side: [] for side in roots} for w in workloads}
        reproduced = {side: [] for side in roots}
        for i in range(args.runs):
            seed = args.first_seed + i
            start = i % len(workloads)
            sides = list(roots) if i % 2 == 0 else list(roots)[::-1]
            for w in workloads[start:] + workloads[:start]:
                for side in sides:
                    r = run_once(roots[side], w, seed)
                    results[w][side].append({**r, "seed": seed})
                    print(f"[{w}] {side} seed {seed}: "
                          f"{r['attempted']} operations, {r['failed']} failed",
                          file=sys.stderr)
            for side in sides:
                r = reproduce_once(roots[side], scratch)
                reproduced[side].append(r)
                print(f"[reproduce-oscillator] {side}: {r['wall_s']:.2f} s",
                      file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    import numpy
    record = {
        "command": "perfbench/run.py --workload W --seed s --seconds 0 "
                   "--trace 0, one child process per run",
        "sha": git("rev-parse", "HEAD").decode().strip(),
        "tree_modified": bool(git("status", "--porcelain", "--", "src",
                                  "perfbench").strip()),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS,
        "nproc": os.cpu_count(),
        "runs": args.runs,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "workloads": {},
        "reproduce_command": "python -m contragp.cli reproduce-oscillator "
                             "--quiet --timings <file outside --out>, one "
                             "child process per run",
        "reproduce": {side: reproduce_record(reproduced[side])
                      for side in roots},
    }
    if args.against:
        record["against"] = {
            "ref": args.against,
            "sha": git("rev-parse", args.against).decode().strip()}
    for w in workloads:
        entry = {side: side_record(results[w][side], metrics)
                 for side in roots}
        if args.against:
            entry["pairs_won_by_tree"] = pairs_won(
                results[w]["tree"], results[w]["against"], metrics)
        record["workloads"][w] = entry
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
