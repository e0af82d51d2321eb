"""One benchmark op in a fresh interpreter, so every agkit cache starts cold.

Protocol over stdin/stdout with perfbench/run.py:
  1. import agkit from the checkout's src/, then print "ready";
  2. read one JSON task from stdin: {"op", "input", "trace", "oracle", "spans"};
  3. run and time the op, print one JSON result line;
  4. if the task asks for it, run the oracle (untimed, untraced) and print
     one more JSON line.
Anything agkit prints during the op or the oracle is swallowed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"


MODULES = ("algebra", "axioms", "caps", "cli", "congruence", "terms", "variety")


def load_agkit() -> SimpleNamespace:
    """The agkit submodules by name (the package root rebinds some of these
    names to functions, e.g. agkit.variety)."""
    sys.path.insert(0, str(SRC))
    import agkit
    if Path(agkit.__file__).resolve() != (SRC / "agkit" / "__init__.py").resolve():
        raise SystemExit(f"agkit imported from {agkit.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"agkit.{name}")
                              for name in MODULES})


# --- ops: every agkit function is looked up on its module at call time, so
# the tracer's wrappers are the ones called --------------------------------------

def op_paper(ag, task):
    rc = ag.cli.main(["verify-paper", "--out", task["out"]])
    return {"rc": rc}, None


def op_large_algebras(ag, task):
    algebra = ag.algebra.load_algebra(task["algebra"])
    classification = ag.congruence.classify(algebra)
    sc = ag.congruence.check_sc(algebra)
    generated = ag.variety.generated_subvariety(algebra)
    return {"size": algebra.size,
            "simple": classification.simple,
            "subdirectly_irreducible": classification.subdirectly_irreducible,
            "directly_indecomposable": classification.directly_indecomposable,
            "sc": sc.sc, "sc_join_variant": sc.join_variant,
            "variety": generated.name}, algebra


def op_free_terms(ag, task):
    v = ag.variety.variety(task["variety"])
    free = ag.variety.free_algebra(v, task["n"])
    limit = ag.caps.cap_value("assignments")
    checked = [r for r in ag.variety.lemma_registry()
               if free.algebra.size ** len(r.sentence.variables()) <= limit]
    verdicts = [ag.terms.holds_in(free.algebra, r.sentence).holds for r in checked]
    axioms_ok = ag.axioms.satisfies_axiom_system(free.algebra, "ALMOST_GAUTAMA").ok
    return {"size": free.algebra.size, "checked": len(checked),
            "holding": sum(verdicts), "axioms_ok": axioms_ok}, (v, free, checked, verdicts)


# --- oracles: independent facts checked outside the timed region ---------------

def oracle_large_algebras(ag, algebra):
    # Fraser-Horn: a product of k simple algebras in a congruence-distributive
    # variety has exactly 2^k congruences; run.py compares against 2^k.
    return {"congruences": len(ag.congruence.congruence_lattice(algebra))}


def oracle_free_terms(ag, state):
    """A sentence valid in V holds in F_V(n); an identity in at most n
    variables holds in V iff it holds at the free generators."""
    v, free, checked, verdicts = state
    n = len(free.generators)
    problems = []
    for record, holds in zip(checked, verdicts):
        sentence = record.sentence
        in_v = ag.variety.quasi_identity_holds(v, sentence).holds
        if in_v and not holds:
            problems.append(f"{record.id} holds in {v.name} but fails in F")
        if not sentence.premises and len(sentence.variables()) <= n and holds != in_v:
            problems.append(f"{record.id} fails in {v.name} but holds in F")
    identities = {str(s): s for s in (
        [r.sentence for r in ag.variety.lemma_registry()]
        + [s for system in ag.axioms.SYSTEMS.values() for _, s in system.sentences]
        + [s for w in ag.variety.all_varieties() for _, s in w.base])
        if not s.premises and len(s.variables()) <= n}
    for text, sentence in sorted(identities.items()):
        via_free = ag.variety.identity_holds_via_free(free, sentence)
        if via_free != ag.variety.quasi_identity_holds(v, sentence).holds:
            problems.append(f"free-generator check disagrees on {text}")
    return {"identities": len(identities), "problems": problems}


OPS = {"paper": op_paper, "large_algebras": op_large_algebras, "free_terms": op_free_terms}
ORACLES = {"large_algebras": oracle_large_algebras, "free_terms": oracle_free_terms}


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  ru_maxrss is not used where
    VmHWM exists: across exec it keeps the spawning parent's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def send(stream, payload) -> None:
    stream.write(json.dumps(payload) + "\n")
    stream.flush()


def main() -> None:
    ag = load_agkit()
    proto = sys.stdout
    send(proto, "ready")
    task = json.loads(sys.stdin.read())
    op = OPS[task["op"]]

    tracer = None
    if task["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            start = time.perf_counter()
            output, state = op(ag, task["input"])
            op_s = time.perf_counter() - start
        except Exception as exc:  # the op failed: report it, the run goes on
            send(proto, {"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            return
        finally:
            if tracer is not None:
                tracer.uninstall()
        result = {"ok": True, "op_s": op_s, "output": output, "rss_kb": peak_rss_kb()}
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.write_spans(task["spans"], task["op"])
        send(proto, result)
        if task["oracle"]:
            send(proto, {"oracle": ORACLES[task["op"]](ag, state)})


if __name__ == "__main__":
    main()
