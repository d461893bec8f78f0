"""Run the gradedlts CLI in-process, traced by layer spans or counted by cProfile.

    python perfbench/probe.py spans OUT REPORT_ID -- <cli arguments>
    python perfbench/probe.py profile OUT -- <cli arguments>

`spans` wraps the public calls of each module from the outside and writes
one record per call (name, start, end, parent span, report id, and counts
read off the call's result) to OUT when the CLI returns.  `profile` runs
the CLI under cProfile and writes only exact call counts to OUT, never
times.  Either way the process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _violations(result):
    return {"triples.violations": len(result)}


def _embedding_dims(emb):
    return {"embedding.null_dim": emb.null_space.dim, "embedding.even_dim": emb.dim_even}


def _lemma_counts(checks):
    return {
        "decomposition.lemma_instances": sum(c.instances for c in checks),
        "decomposition.lemma_nonvacuous": sum(c.nonvacuous for c in checks),
    }


# (module, attribute, span name, counts read off the result)
LAYER_CALLS = (
    ("systemfile", "load_system", "systemfile.load", None),
    ("triples", "GradedTripleSystem.verify_axioms", "triples.verify_axioms", _violations),
    ("triples", "GradedTripleSystem.verify_fundamental_identity", "triples.verify_fundamental", _violations),
    ("triples", "GradedTripleSystem.verify_grading", "triples.verify_grading", _violations),
    ("triples", "GradedTripleSystem.lie_defect_ideal", "triples.lie_defect_ideal", None),
    ("triples", "GradedTripleSystem.annihilator", "triples.annihilator", None),
    ("embedding", "build_embedding", "embedding.build", _embedding_dims),
    ("embedding", "StandardEmbedding.verify_even_grading", "embedding.even_grading", None),
    ("connections", "SupportData.from_system", "connections.support", None),
    ("connections", "connection_classes", "connections.classes", lambda r: {"connections.classes": len(r)}),
    ("connections", "connection_closure", "connections.closure", lambda r: {"connections.closure_elems": len(r)}),
    ("connections", "witness_sequence", "connections.witness", None),
    ("decomposition", "decompose", "decomposition.decompose", None),
    ("decomposition", "class_ideal", "decomposition.class_ideals", None),
    ("decomposition", "simplicity_obstructions", "decomposition.obstructions", None),
    ("decomposition", "verify_structure_lemmas", "decomposition.lemmas", _lemma_counts),
)


CALL_COUNTS = ("scalar.fraction_calls", "scalar.primefield_calls", "linalg.calls")


class Tracer:
    """Spans kept in memory; a stack gives each span its parent."""

    def __init__(self, report_id: str):
        self.report_id = report_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "report": self.report_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(result)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every call in LAYER_CALLS, in every gradedlts module bound to it.

    Returns the calls that no longer exist, so a renamed layer is reported
    instead of silently timing nothing.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("gradedlts")]
    missing = []
    for module_name, attr, span_name, counts in LAYER_CALLS:
        owner = importlib.import_module(f"gradedlts.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(leaf) if owner is not None else None
        if raw is None:
            missing.append(f"{module_name}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(span_name, raw.__func__, counts)))
        elif path:
            setattr(owner, leaf, tracer.wrap(span_name, raw, counts))
        else:
            wrapped = tracer.wrap(span_name, raw, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)
    return missing


def _code_keys(cls) -> set:
    keys = set()
    for value in vars(cls).values():
        if isinstance(value, property):
            value = value.fget
        value = getattr(value, "__func__", value)
        code = getattr(value, "__code__", None)
        if code is not None:
            keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    return keys


def call_counts(stats: dict) -> dict:
    """Exact call counts by scalar and linear-algebra layer from pstats entries."""
    import fractions

    from gradedlts import linalg

    prime_keys = set()
    for cls_name in ("PrimeField", "PrimeFieldElement"):
        cls = getattr(linalg, cls_name, None)
        if cls is not None:
            prime_keys |= _code_keys(cls)
    counts = dict.fromkeys(CALL_COUNTS, 0)
    for key, (_, ncalls, *_rest) in stats.items():
        if key[0] == fractions.__file__:
            counts["scalar.fraction_calls"] += ncalls
        elif key in prime_keys:
            counts["scalar.primefield_calls"] += ncalls
        elif key[0] == linalg.__file__:
            counts["linalg.calls"] += ncalls
    return counts


def main(argv: list[str]) -> int:
    split = argv.index("--")
    mode, out, *rest = argv[:split]
    cli_args = argv[split + 1:]
    import gradedlts.cli as cli

    if mode == "spans":
        tracer = Tracer(rest[0])
        for name in install(tracer):
            print(f"probe: {name} not found, no span recorded", file=sys.stderr)
        rc = tracer.wrap("cli.main", cli.main)(cli_args)
        payload = tracer.spans
    else:
        import cProfile
        import pstats

        profiler = cProfile.Profile(builtins=False, subcalls=False)
        profiler.enable()
        try:
            rc = cli.main(cli_args)
        finally:
            profiler.disable()
        payload = call_counts(pstats.Stats(profiler).stats)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
