"""Cold-process benchmark for agkit.

    python3 perfbench/run.py --workload {paper,large_algebras,free_terms}
                             --seed N --seconds S --trace {0,1}

Closed loop, one client: each op runs in a fresh child interpreter
(perfbench/child.py), one child at a time, the way users run one `agkit`
command per process.  A workload is a fixed cycle of ops built from the seed.
--seconds sets the amount of work: ceil(seconds / CYCLE_SECONDS) whole
cycles, CYCLE_SECONDS being a nominal cycle length per workload.  Every run
of a workload thus does the same ops, so
order statistics such as op_tail_s pick the same op on every run, and a
faster program does the same work in less time.  Outputs are checked against
oracles outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced cycles and reports per-op layer counters and
self times, plus the tracing overhead.  The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"
REPORT = "perfbench/out/paper-report.json"  # relative to the checkout root
OP_TIMEOUT_S = 120

# Nominal seconds per cycle.  A run does ceil(seconds / CYCLE_SECONDS) cycles:
# for a 20-second run, 11 paper ops (so that p90 is exactly the second
# slowest) and one cycle of each other workload.  At the seed commit on a
# 2-vCPU x86-64 VM such a run takes 25-40 s.
CYCLE_SECONDS = {"paper": 1.9, "large_algebras": 20.0, "free_terms": 20.0}

# The congruence-count oracle costs about as much as the op, so it runs only
# on products up to this size.
CON_ORACLE_MAX_SIZE = 36

# verify-paper at the seed commit: 219 records, all matching expectations.
PAPER_RECORDS = 219
PAPER_DIGEST = "bed7a894465af4beaf80f57610d6ee82195b7ebf3ccd6500c7e308bd24786698"

# large_algebras strata: the factors of one product (24-64 elements, 3 or 4
# factors) and how many renumbered copies a cycle holds.  The factors are fixed
# per size because which 3-element builtin is drawn moves the op time by up to
# a quarter.  Of the 16 ops, the 36-element stratum is drawn ten times so that
# the median rests on ops of one kind instead of falling between two sizes, and
# the 48-element one twice so that p90 is the mean of its two ops.
STRATA = (
    (("2", "2", "2", "3_dblst"), 1),               # 24, RDBLST
    (("3_klst", "3_klst", "3_klst"), 1),           # 27, RKLST
    (("2", "2", "2", "4_dmba"), 1),                # 32, DMBA
    (("3_dblst", "3_klst", "4_dmba"), 10),         # 36, AG
    (("3_dblst", "4_dmba", "4_dmba"), 2),          # 48, V_DBLST_DMBA
    (("2", "2", "4_dmba", "4_dmba"), 1),           # 64, DMBA
)

# The subvariety lattice of the paper, keyed by SI generators.
VARIETY_OF = {
    frozenset({"2"}): "BA",
    frozenset({"2", "3_dblst"}): "RDBLST",
    frozenset({"2", "3_klst"}): "RKLST",
    frozenset({"2", "4_dmba"}): "DMBA",
    frozenset({"2", "3_dblst", "3_klst"}): "G",
    frozenset({"2", "3_dblst", "4_dmba"}): "V_DBLST_DMBA",
    frozenset({"2", "3_klst", "4_dmba"}): "V_KLST_DMBA",
    frozenset({"2", "3_dblst", "3_klst", "4_dmba"}): "AG",
}

# (variety, n) with |F_V(n)| <= 256, and that size.
FREE_SIZES = {
    ("BA", 1): 4, ("BA", 2): 16, ("BA", 3): 256, ("RDBLST", 1): 12,
    ("RKLST", 1): 12, ("DMBA", 1): 16, ("G", 1): 36, ("V_DBLST_DMBA", 1): 48,
    ("V_KLST_DMBA", 1): 48, ("AG", 1): 144,
}


# --- inputs --------------------------------------------------------------------

def product_spec(factors: list[dict], permutation: list[int], name: str) -> dict:
    """Direct product of builtin specs (last factor fastest), with element i
    renamed to permutation[i]."""
    tuples = list(itertools.product(*(range(f["size"]) for f in factors)))
    position = {t: permutation[i] for i, t in enumerate(tuples)}
    n = len(tuples)

    def unary(op, x):
        return position[tuple(f[op][a] for f, a in zip(factors, x))]

    def binary(op, x, y):
        return position[tuple(f[op][a][b] for f, a, b in zip(factors, x, y))]

    spec = {"name": name, "size": n, "labels": [None] * n,
            "join": [[0] * n for _ in range(n)], "meet": [[0] * n for _ in range(n)],
            "star": [0] * n, "quote": [0] * n,
            "zero": position[tuple(f["zero"] for f in factors)],
            "one": position[tuple(f["one"] for f in factors)]}
    for x in tuples:
        i = position[x]
        spec["labels"][i] = "(" + ",".join(f["labels"][a] for f, a in zip(factors, x)) + ")"
        spec["star"][i], spec["quote"][i] = unary("star", x), unary("quote", x)
        for y in tuples:
            spec["join"][i][position[y]] = binary("join", x, y)
            spec["meet"][i][position[y]] = binary("meet", x, y)
    return spec


def builtin_specs() -> dict[str, dict]:
    sys.path.insert(0, str(SRC))
    from agkit.algebra import BUILTIN_NAMES, builtin
    return {name: builtin(name).spec_dict() for name in BUILTIN_NAMES}


def spread_out(cycle: list, kind, rng: random.Random) -> list:
    """Seeded order of the cycle in which the copies of each op kind sit at
    even intervals.  The host's CPU speed changes in phases of seconds, so
    copies bunched together would all land in one phase."""
    groups: dict = {}
    for item in cycle:
        groups.setdefault(kind(item), []).append(item)
    placed = []
    for items in groups.values():
        offset = rng.random()
        placed += [((i + offset) / len(items), rng.random(), item)
                   for i, item in enumerate(items)]
    placed.sort(key=lambda p: p[:2])
    return [item for _, _, item in placed]


def paper_cycle(rng: random.Random) -> list[tuple[dict, dict]]:
    # The inputs are the four builtin tables by definition; the seed is unused.
    return [({"out": REPORT}, {})]


def large_algebras_cycle(rng: random.Random) -> list[tuple[dict, dict]]:
    specs = builtin_specs()
    cycle = []
    for factors, copies in STRATA:
        for _ in range(copies):
            names = rng.sample(factors, len(factors))
            n = math.prod(specs[name]["size"] for name in names)
            spec = product_spec([specs[name] for name in names], rng.sample(range(n), n),
                                "P_" + "_".join(names))
            expect = {"size": n, "simple": False, "subdirectly_irreducible": False,
                      "directly_indecomposable": False, "sc": False,
                      "sc_join_variant": False,
                      "variety": VARIETY_OF[frozenset(names) | {"2"}],
                      "congruences": 2 ** len(names)}
            cycle.append(({"algebra": json.dumps(spec, separators=(",", ":"))}, expect))
    return spread_out(cycle, lambda op: op[1]["size"], rng)


def free_terms_cycle(rng: random.Random) -> list[tuple[dict, dict]]:
    # Five of the ten free algebras have at most 16 elements and five at least
    # 36, so with one draw each the median op would fall between a 30 ms and a
    # 160 ms op.  Of the 21 ops, G 1 is drawn eight times so that the median
    # rests on ops of one kind, and BA 3 five times so that p90 is its second
    # slowest op instead of falling between two kinds.
    keys = sorted(FREE_SIZES) + [("G", 1)] * 7 + [("BA", 3)] * 4
    return [({"variety": v, "n": n}, {"size": FREE_SIZES[v, n]})
            for v, n in spread_out(keys, lambda key: key, rng)]


CYCLES = {"paper": paper_cycle, "large_algebras": large_algebras_cycle,
          "free_terms": free_terms_cycle}


# --- oracles -------------------------------------------------------------------

def check_paper(result: dict, expect: dict) -> str | None:
    if result["output"]["rc"] != 0:
        return f"verify-paper exited {result['output']['rc']}"
    try:
        records = json.loads((ROOT / REPORT).read_text(encoding="utf-8"))["records"]
    except (OSError, ValueError, KeyError) as exc:
        return f"no readable report: {exc!r}"
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    if len(records) != PAPER_RECORDS or digest != PAPER_DIGEST:
        return f"report has {len(records)} records, digest {digest[:12]}"
    return None


def check_large_algebras(result: dict, expect: dict) -> str | None:
    wrong = {k: v for k, v in result["output"].items() if expect[k] != v}
    if "oracle" in result and result["oracle"]["congruences"] != expect["congruences"]:
        wrong["congruences"] = result["oracle"]["congruences"]
    return f"unexpected {wrong} for {expect}" if wrong else None


def check_free_terms(result: dict, expect: dict) -> str | None:
    output = result["output"]
    if output["size"] != expect["size"] or not output["axioms_ok"]:
        return f"free algebra has {output['size']} elements, axioms_ok={output['axioms_ok']}"
    if "oracle" in result and result["oracle"]["problems"]:
        return "; ".join(result["oracle"]["problems"])
    return None


CHECKS = {"paper": check_paper, "large_algebras": check_large_algebras,
          "free_terms": check_free_terms}


# --- running ops ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AGKIT_CAP", None)   # every workload runs under the default caps
    env["PYTHONHASHSEED"] = "0"  # same set iteration order, so layer counts repeat
    return env


def run_op(workload: str, task_input: dict, expect: dict, *, trace: bool,
           oracle: bool, spans: str) -> dict:
    """Spawn one child, run one op in it, and check the output."""
    task = {"op": workload, "input": task_input, "trace": trace, "oracle": oracle,
            "spans": spans}
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD)], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    result = {"ok": False, "error": "child ended before reporting"}
    try:
        if proc.stdout.readline().strip() == '"ready"':
            ready_at = time.perf_counter()
            try:
                proc.stdin.write(json.dumps(task))
                proc.stdin.close()
            except OSError:
                pass
            line = proc.stdout.readline()
            done_at = time.perf_counter()
            if line:
                result = json.loads(line)
                result["setup_s"] = ready_at - started
                result["wall_s"] = done_at - started
            if result["ok"] and oracle:
                line = proc.stdout.readline()
                result.update(json.loads(line) if line else
                              {"ok": False, "error": "child ended before the oracle"})
    except BaseException:
        proc.kill()
        raise
    finally:
        if not proc.stdin.closed:
            proc.stdin.close()
        proc.stdout.read()  # drain until the child exits; the watchdog bounds this
        proc.wait()
        watchdog.cancel()
        proc.stdout.close()
    if result["ok"]:
        problem = CHECKS[workload](result, expect)
        if problem:
            result.update(ok=False, error=problem)
    (ROOT / REPORT).unlink(missing_ok=True)  # no op sees an earlier op's report
    return result


def oracle_key(workload: str, task_input: dict, expect: dict):
    """Ops with equal keys share one oracle run per benchmark run; None means
    the op's output checks in run.py are its only oracle."""
    if workload == "free_terms":
        return task_input["variety"], task_input["n"]
    if workload == "large_algebras" and expect["size"] <= CON_ORACLE_MAX_SIZE:
        return expect["size"]
    return None


def run_cycles(workload: str, cycle, seconds: float, trace: bool) -> tuple[list, list]:
    """ceil(seconds / CYCLE_SECONDS) whole cycles.  In trace mode, half as many
    (rounded up) pairs of an untraced and a traced cycle."""
    spans = str(OUT / f"spans-{workload}.jsonl")
    cycles = max(1, math.ceil(seconds / CYCLE_SECONDS[workload]))
    untraced, traced = [], []
    checked = {None}
    for _ in range(math.ceil(cycles / 2) if trace else cycles):
        for task_input, expect in cycle:
            key = oracle_key(workload, task_input, expect)
            untraced.append(run_op(workload, task_input, expect, trace=False,
                                   oracle=key not in checked, spans=spans))
            checked.add(key)
        if trace:
            for task_input, expect in cycle:
                traced.append(run_op(workload, task_input, expect, trace=True,
                                     oracle=False, spans=spans))
    return untraced, traced


# --- metrics -------------------------------------------------------------------

def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest op times."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(records: list[dict]) -> tuple[dict, list[str]]:
    timed = [r for r in records if "op_s" in r]
    op_s = [r["op_s"] for r in timed]
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "op_p50_s": (statistics.median(op_s), "s"),
        "op_tail_s": (p90(op_s), "s"),
        "ops_per_s": (len(timed) / sum(r["wall_s"] for r in timed), "1/s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in timed) / 1024, "MiB"),
        "success_rate": (1 - failed / len(records), "ratio"),
        "setup_s": (statistics.median(r["setup_s"] for r in timed), "s"),
    }
    notes = [f"ops={len(records)} timed={len(timed)} failed={failed} "
             f"error_rate={failed / len(records):.4f}",
             f"op_tail_s is p90 of {len(op_s)} op times"]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    from tracing import EXTRA_STATS, NAMES
    layers = [r["layers"] for r in traced if "layers" in r]
    ops = len(layers)
    metrics = {}
    for name in NAMES:
        total = {stat: sum(layer[name].get(stat, 0) for layer in layers)
                 for stat in ("calls", "self_s", "errors", "repeats")}
        metrics[f"{name}.calls"] = (total["calls"] / ops, "1/op")
        metrics[f"{name}.self_s"] = (total["self_s"] / ops, "s/op")
        metrics[f"{name}.errors"] = (total["errors"] / ops, "1/op")
    for name, stat in EXTRA_STATS:
        if stat == "repeat_ratio":
            calls = sum(layer[name]["calls"] for layer in layers)
            repeats = sum(layer[name]["repeats"] for layer in layers)
            metrics[f"{name}.{stat}"] = (repeats / calls if calls else 0.0, "ratio")
        else:
            metrics[f"{name}.{stat}"] = (sum(layer[name].get(stat, 0) for layer in layers) / ops,
                                         "1/op")
    plain = statistics.median(r["op_s"] for r in untraced if "op_s" in r)
    with_trace = statistics.median(r["op_s"] for r in traced if "op_s" in r)
    metrics["trace.overhead_ratio"] = (with_trace / plain - 1, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# --- entry point ---------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "agkit" / "__init__.py").is_file():
        print(f"error: no agkit sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        (OUT / f"spans-{args.workload}.jsonl").write_text("")

    cycle = CYCLES[args.workload](random.Random(args.seed))
    untraced, traced = run_cycles(args.workload, cycle, args.seconds, bool(args.trace))
    records = untraced + traced
    if not any("op_s" in r for r in untraced) or (args.trace and not any(
            "layers" in r for r in traced)):
        for r in records[:5]:
            print(f"error: {r.get('error')}", file=sys.stderr)
        return 1

    metrics, notes = end_to_end(untraced)
    if args.trace:
        metrics = per_layer(untraced, traced)
    print(f"workload={args.workload} seed={args.seed} cycle={len(cycle)} ops "
          f"trace={args.trace}")
    for line in notes:
        print(line)
    for r in records:
        if not r["ok"]:
            print(f"FAILED: {r.get('error')}")
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
