"""Record perfbench runs of this checkout against a parent commit.

    python3 tools/bench.py --parent REV --seed N --out BENCH_<n>.json [--workload W ...]

Stdlib only. It extracts REV with `git archive` into a temporary directory
and runs perfbench/run.py there and in this checkout, each side its own copy
of run.py: per workload, PAIRS alternating pairs of `--trace 0` runs (the
parent first in even pairs, this checkout first in odd ones), then one
`--trace 1` run per side, each run as long as BENCHMARK.json's run_seconds.
The JSON it writes holds, per workload and side, each end-to-end metric's
median and quartiles over the pairs, how many pairs each side won on it (the
better side by BENCHMARK.json; equal values win for neither), every run's
values, and the traced per-layer values; and the commits, the Python
version, the host and PYTHONDONTWRITEBYTECODE.

It also times, each with the same summary and pair wins (lower is better):

  cold_verify_paper  a cold in-process `verify_paper()`: PAIRS alternating
                     pairs, each run a fresh interpreter that imports agkit
                     from the side's src/ and times the one call alone,
                     import excluded (metric "op_s");
  import_agkit       `python -X importtime -c 'import agkit'`: PAIRS
                     alternating pairs, the cumulative import time of the
                     `agkit` package as the interpreter reports it ("import_s");
  tier1              the Tier-1 suite, `python -m pytest -q` in the side's
                     tree: TIER1_PAIRS alternating pairs of wall times
                     ("wall_s"), each run required to pass.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 12
TIER1_PAIRS = 3  # a suite run takes ≈25-35 s


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics of one perfbench/run.py run in `tree` (its last stdout line)."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"run.py failed in {tree} on {workload}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run.py reported failed ops in {tree} on {workload}:\n{done.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


COLD_VERIFY = ("import time, agkit\nstart = time.perf_counter()\nagkit.verify_paper()\n"
               "print(time.perf_counter() - start)")


def python(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter in `tree` that imports agkit from its src/, under
    the default caps and PYTHONHASHSEED=0, as perfbench runs its children."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    env.pop("AGKIT_CAP", None)
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed in {tree}:\n{done.stdout}{done.stderr}")
    return done


def cold_verify_paper(tree: Path) -> dict:
    """The seconds of one verify_paper() in a fresh interpreter."""
    return {"op_s": float(python(tree, "-c", COLD_VERIFY).stdout)}


def import_agkit(tree: Path) -> dict:
    """The cumulative seconds of `import agkit` by -X importtime, whose
    stderr lines read `import time: self [us] | cumulative | name`."""
    for line in python(tree, "-X", "importtime", "-c", "import agkit").stderr.splitlines():
        fields = line.split("|")
        if fields[-1].strip() == "agkit":
            return {"import_s": int(fields[1]) / 1e6}
    raise SystemExit(f"no import time for agkit in {tree}")


def tier1(tree: Path) -> dict:
    """The wall seconds of one Tier-1 run, which must pass."""
    start = time.perf_counter()
    python(tree, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")
    return {"wall_s": time.perf_counter() - start}


def alternate(trees: dict[str, Path], measure, label: str,
              pairs: int = PAIRS) -> dict[str, list[dict]]:
    """`pairs` alternating pairs of measure(tree): the parent first in even
    pairs, this checkout first in odd ones."""
    runs = {side: [] for side in SIDES}
    for pair in range(pairs):
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            runs[side].append(measure(trees[side]))
        print(f"{label}: pair {pair + 1}/{pairs}", file=sys.stderr)
    return runs


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, its pairs
    won, and every run's value."""
    out = {}
    for name, direction in better.items():
        values = {side: [r[name] for r in runs[side]] for side in SIDES}
        wins = dict.fromkeys(SIDES, 0)
        for parent, change in zip(values["parent"], values["change"]):
            if parent != change:
                change_better = change < parent if direction == "lower" else change > parent
                wins["change" if change_better else "parent"] += 1
        out[name] = {"better": direction, "wins": wins,
                     **{side: summary(values[side]) | {"runs": values[side]} for side in SIDES}}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", dest="workloads")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    uncommitted = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = {
        "commits": {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD"),
                    "change_uncommitted": uncommitted},
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seed": args.seed, "seconds": seconds, "pairs": PAIRS, "tier1_pairs": TIER1_PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": Path(scratch), "change": ROOT}
        extract(args.parent, trees["parent"])
        for workload in workloads:
            runs = alternate(trees, functools.partial(
                run, workload=workload, seed=args.seed, seconds=seconds, trace=0), workload)
            traced = {side: run(trees[side], workload, args.seed, seconds, 1)
                      for side in SIDES}
            record["workloads"][workload] = {"end_to_end": compare(runs, better),
                                             "traced": traced}
        for measure, metric, pairs in ((cold_verify_paper, "op_s", PAIRS),
                                       (import_agkit, "import_s", PAIRS),
                                       (tier1, "wall_s", TIER1_PAIRS)):
            runs = alternate(trees, measure, measure.__name__, pairs)
            record[measure.__name__] = compare(runs, {metric: "lower"})
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
