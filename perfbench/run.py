"""Benchmark of the gradedlts command line on generated graded systems.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`.
The seed is the decompose probes' `--seed`.  Every input is verified
in-process before anything is timed, and every report is checked against
the facts its input was built with (see workloads.py).

`--trace 0` runs the CLI in a closed loop, one fresh `python -m gradedlts`
child at a time, until S seconds have passed (whole rounds over the
workload's inputs, at least one), and reports:

  report_ref   median over the CLI runs of the wall time of one run, spawn
               to exit, divided by the mean wall time of the passes of the
               reference computation (reference.py) right before and
               right after it: report time in units of a fixed yardstick
               that the host's load slows alike; raw seconds are printed,
               not reported
  setup_s      median wall time of a fresh interpreter that imports
               gradedlts and loads the workload file
  peak_rss_mb  largest peak resident memory of any CLI child (MiB)

`--trace 1` runs one untraced round, one round with layer spans recorded
from outside the program (probe.py spans) and two concurrent cProfile runs
of the first input (probe.py profile), and reports the per-layer metrics:
total and self time of each layer's public calls, the work counts read off
their results, the tracing overhead (traced minus untraced round), and the
exact call counts, which must agree between the two profiled runs.  The
spans are written to .bench_work/spans-<workload>-<seed>.json.

The last line of standard output is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed` counts the CLI
runs whose exit code or report check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from probe import CALL_COUNTS, LAYER_CALLS
from reference import reference

SETUP_PER_ROUND = 3
REFERENCE_PASSES = 3
SETUP_PROGRAM = "import sys; from gradedlts import load_system; load_system(sys.argv[1])"
PROBE = Path(__file__).resolve().with_name("probe.py")


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs; no result is printed."""


def spawn(argv: list[str], env: dict, stderr) -> tuple[float, int, int]:
    """Run one child to its exit: wall seconds from spawn to exit, exit code, peak RSS in KiB."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


class Session:
    """Inputs on disk, the child environment and the tally of checked CLI runs."""

    def __init__(self, workload, root: Path, work: Path):
        from gradedlts import dump_system, load_system

        self.workload = workload
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_path = work / "stderr.txt"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_report: dict[str, str] = {}
        self.paths = {}
        for inp in workload.inputs:
            path = work / f"{inp.label}.json"
            dump_system(inp.system, path)
            self.paths[inp.label] = path
            system = load_system(path)
            found = (
                system.verify_axioms()
                + system.verify_grading()
                + system.verify_fundamental_identity()
            )
            if found:
                raise SetupError(f"generated input {inp.label} fails verify: {len(found)} violations")

    def cli_args(self, inp, out: Path) -> list[str]:
        wl = self.workload
        return [wl.command, str(self.paths[inp.label]), "--json", str(out), *wl.extra_args]

    def check(self, inp, exit_code: int, out: Path, how: str, extra=()) -> None:
        from workloads import canonical, check_report

        self.attempted += 1
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems = [f"no readable report ({exc}); exit code {exit_code}; {self._stderr_tail()}"]
        else:
            out.unlink()
            try:
                problems = check_report(inp, self.workload.command, exit_code, report)
                text = canonical(report)
            except (KeyError, TypeError) as exc:
                problems = [f"malformed report: missing {exc}"]
            else:
                if self._first_report.setdefault(inp.label, text) != text:
                    problems.append("report differs from the first report of this input")
        problems += extra
        if problems:
            self.failed += 1
            self.problems += [f"{how} {inp.label}: {p}" for p in problems]

    def _stderr_tail(self) -> str:
        try:
            lines = self.stderr_path.read_text(encoding="utf-8", errors="replace").splitlines()
        except OSError:
            return "no stderr"
        return lines[-1] if lines else "empty stderr"

    def run_cli(self, inp) -> tuple[float, int]:
        out = self.work / "report.json"
        with open(self.stderr_path, "wb") as err:
            wall, rc, rss = spawn(
                [sys.executable, "-m", "gradedlts", *self.cli_args(inp, out)], self.env, err
            )
        self.check(inp, rc, out, "cli")
        return wall, rss

    def run_traced(self, inp, spans_path: Path) -> float:
        out = self.work / "report.json"
        report_id = f"{self.workload.name}/{inp.label}"
        argv = [sys.executable, str(PROBE), "spans", str(spans_path), report_id, "--"]
        with open(self.stderr_path, "wb") as err:
            wall, rc, _ = spawn(argv + self.cli_args(inp, out), self.env, err)
        for line in self.stderr_path.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("probe:"):
                print(line, file=sys.stderr)
        self.check(inp, rc, out, "traced")
        return wall

    def run_profiled_pair(self, inp) -> dict:
        """Two cProfile runs of one input side by side; their call counts must agree."""
        procs, files = [], []
        try:
            for j in range(2):
                counts = self.work / f"counts-{j}.json"
                out = self.work / f"profiled-{j}.json"
                argv = [sys.executable, str(PROBE), "profile", str(counts), "--"]
                procs.append(
                    subprocess.Popen(
                        argv + self.cli_args(inp, out),
                        env=self.env,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    )
                )
                files.append((counts, out))
        finally:
            codes = [p.wait() for p in procs]
        results = []
        for counts, _ in files:
            try:
                results.append(json.loads(counts.read_text(encoding="utf-8")))
            except (OSError, ValueError):
                results.append(None)
        agree = results[0] is not None and results[0] == results[1]
        for j, (rc, (_, out)) in enumerate(zip(codes, files)):
            extra = [] if agree or j == 0 else [f"call counts differ between the two runs {results}"]
            self.check(inp, rc, out, "profiled", extra)
        return results[0] if agree else {}

    def setup_time(self) -> float:
        """One fresh interpreter importing gradedlts and loading the first input."""
        argv = [sys.executable, "-c", SETUP_PROGRAM, str(self.paths[self.workload.inputs[0].label])]
        with open(self.stderr_path, "wb") as err:
            wall, rc, _ = spawn(argv, self.env, err)
        if rc != 0:
            raise SetupError(f"loading the input failed with exit code {rc}: {self._stderr_tail()}")
        return wall


def measure(session: Session, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics: a closed loop of whole rounds until `seconds` have passed.

    Set-up samples are spread over the run, a few before each round, so that
    their median covers the same stretch of time as the CLI runs.  A few
    passes of the reference computation precede the first CLI run and follow
    every CLI run; each CLI run is divided by the mean of the passes on
    either side of it.
    """
    session.setup_time()  # writes the bytecode cache; not timed
    reference()  # warms the reference's caches; not timed
    setup, walls, ratios, rss = [], [], [], 0
    refs = [reference() for _ in range(REFERENCE_PASSES)]
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        setup += [session.setup_time() for _ in range(SETUP_PER_ROUND)]
        for inp in session.workload.inputs:
            wall, peak = session.run_cli(inp)
            refs += [reference() for _ in range(REFERENCE_PASSES)]
            walls.append(wall)
            ratios.append(wall / statistics.fmean(refs[-2 * REFERENCE_PASSES:]))
            rss = max(rss, peak)
    metrics = {
        "report_ref": {"value": statistics.median(ratios), "unit": "ref"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss / 1024, "unit": "MiB"},
    }
    notes = [
        f"report_ref   {metrics['report_ref']['value']:.4f} ref  (median of {len(ratios)} CLI runs)",
        f"report_s     {statistics.median(walls):.4f} s  (median of {len(walls)} CLI runs; not compared)",
        f"reference_s  {statistics.median(refs):.4f} s  (median of {len(refs)} passes)",
        f"setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(setup)})",
        f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.2f} MiB  (max over {len(walls)} CLI runs)",
    ]
    return metrics, notes


SPAN_NAMES = tuple(span for _, _, span, _ in LAYER_CALLS) + ("cli.main",)
SPAN_COUNTS = (
    "triples.violations",
    "embedding.null_dim",
    "embedding.even_dim",
    "connections.classes",
    "connections.closure_elems",
    "decomposition.lemma_instances",
    "decomposition.lemma_nonvacuous",
)
SELF_LAYERS = ("systemfile", "triples", "embedding", "connections", "decomposition")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Totals per span name, self time per layer (cli's is cli.recompute_s) and summed counts."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[(s["report"], s["parent"])] += s["end"] - s["start"]
    totals = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SELF_LAYERS + ("cli",), 0.0)
    counts = dict.fromkeys(SPAN_COUNTS, 0)
    for s in spans:
        duration = s["end"] - s["start"]
        totals[s["name"]] += duration
        own[s["name"].split(".")[0]] += duration - children[(s["report"], s["id"])]
        for key, value in s.get("counts", {}).items():
            counts[key] += value
    metrics = {f"{name}_s": value for name, value in totals.items()}
    metrics.update({f"{layer}.self_s": own[layer] for layer in SELF_LAYERS})
    metrics["cli.recompute_s"] = own["cli"]
    metrics.update(counts)
    return metrics


def trace(session: Session, spans_out: Path) -> tuple[dict, list[str]]:
    inputs = session.workload.inputs
    untraced = sum(session.run_cli(inp)[0] for inp in inputs)
    spans, traced = [], 0.0
    for i, inp in enumerate(inputs):
        path = session.work / f"spans-{i}.json"
        traced += session.run_traced(inp, path)
        if path.exists():
            spans += json.loads(path.read_text(encoding="utf-8"))
    spans_out.write_text(json.dumps(spans), encoding="utf-8")
    values = layer_metrics(spans)
    values["trace.overhead_s"] = traced - untraced
    counts = session.run_profiled_pair(inputs[0])
    values.update({name: counts.get(name, 0) for name in CALL_COUNTS})
    metrics = {
        name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
        for name, value in values.items()
    }
    notes = [f"{name:34} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gradedlts" / "__init__.py").is_file():
        print(f"perfbench: no src/gradedlts under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    result = run(workload, root, args.seconds, bool(args.trace), args.seed)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(workload, root: Path, seconds: float, traced: bool, seed: int) -> dict | None:
    """Measure one workload and return the result object, or None when set-up failed."""
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        session = Session(workload, root, work)
        if traced:
            metrics, notes = trace(session, scratch / f"spans-{workload.name}-{seed}.json")
        else:
            metrics, notes = measure(session, seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {workload.name}, seed {seed}, trace {int(traced)}")
    for line in notes:
        print(" ", line)
    print(
        f"  failed_frac  {session.failed / session.attempted:.4f}  "
        f"({session.failed} of {session.attempted} CLI runs)"
    )
    for problem in session.problems:
        print("  FAILED", problem)
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
