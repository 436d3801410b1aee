"""Benchmark of the ``incidences`` command line, run in-process.

    python3 bench/run.py --workload search-cells --seed 1 --seconds 38 --trace 0

Every workload is a fixed list of ``incidences.cli.main(argv)`` calls over
input documents the benchmark writes from ``--seed``.  One pass runs the
list once; passes repeat until ``--seconds`` would be exceeded, taking the
allowed CPUs in turn (see :func:`on_cpu`).  Each output is checked by
``checker.py`` and must be byte-identical in every pass.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer numbers of
``tracer.py``; ``--trace 0`` reports the end-to-end numbers.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the full record goes to ``.bench_results/`` at the repository root.  The
run is single-threaded, reads and writes only inside the checkout, and
exits with code 2 if the package sources are not found.  Peak memory is
that of the whole process, so under ``--workload all`` it accumulates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import tracer   # noqa: E402

RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "documents.self_s": "s",
    "arrangement.self_s": "s",
    "partition.self_s": "s",
    "cliques.self_s": "s",
    "arrangement.incidences.self_s": "s",
    "arrangement.Arrangement._build_index.self_s": "s",
    "arrangement.incidence_stats.self_s": "s",
    "arrangement.measured_density.self_s": "s",
    "documents.loads_document.self_s": "s",
    "documents.arrangement_from_document.self_s": "s",
    "documents.dumps_canonical.self_s": "s",
    "partition.partition.self_s": "s",
    "traced.wall_s": "s",
    "untraced.wall_s": "s",
    "arrangement.incidences.builds": "count",
    "arrangement.incidences.pairs": "count",
    "arrangement.measured_density.calls": "count",
    "arrangement.dualize.calls": "count",
    "cliques.multiplicity_filter.calls": "count",
    "cliques.build_graph.edges": "count",
    "cliques.enumerate_complete_tuples.calls": "count",
    "cliques.enumerate_complete_tuples.results": "count",
    "cliques.count_triangles.calls": "count",
    "pipeline.find_complete_tuple.calls": "count",
    "pipeline.cells_attempted": "count",
    "pipeline.cells_found": "count",
    "partition.partition.cells": "count",
    "geometry.strictly_between.calls": "count",
    "geometry.concurrent.calls": "count",
    "geometry.incident.calls": "count",
    "geometry.line_through.calls": "count",
    "documents.bytes_read": "count",
    "documents.bytes_written": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def on_cpu(turn: int | None) -> None:
    """Pin this process to the allowed CPU whose turn it is; None unpins it.

    The CPUs of a small virtual machine can differ in speed for minutes at a
    time, and the scheduler keeps a busy process on one of them.  Taking the
    CPUs in turn makes every run sample all of them instead of one at random.
    Where pinning is refused, the scheduler keeps choosing.
    """
    if ALLOWED_CPUS:
        cpus = ALLOWED_CPUS if turn is None else [ALLOWED_CPUS[turn % len(ALLOWED_CPUS)]]
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Call:
    command: str
    input: str
    output: str
    options: tuple[str, ...] = ()

    def argv(self, workdir: Path) -> list[str]:
        return [self.command, *self.options,
                "--input", str(workdir / self.input), "--output", str(workdir / self.output)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    documents: Callable[[int], dict]  # seed -> {file name: document}
    calls: tuple[Call, ...]
    found_at_generator_order: dict = field(default_factory=dict)


def _shuffled(doc: dict, seed: int, name: str) -> dict:
    rng = random.Random(f"{seed}/{name}")
    rng.shuffle(doc["points"])
    rng.shuffle(doc["lines"])
    return doc


def grid_documents(sizes):
    def make(seed: int) -> dict:
        from incidences.arrangement import grid_construction
        from incidences.documents import arrangement_to_document

        return {f"grid{n}.json": _shuffled(arrangement_to_document(
                    grid_construction(n), {"generator": "grid", "params": {"n": n}}),
                    seed, f"grid{n}")
                for n in sizes}
    return make


def census_documents(seed: int) -> dict:
    lattice = [(x, y) for x in range(12) for y in range(12)]
    rng = random.Random(f"{seed}/random-points")
    scattered: dict[tuple[int, int], None] = {}
    while len(scattered) < 140:
        scattered[(rng.randint(0, 10**6), rng.randint(0, 10**6))] = None
    docs = {}
    for name, pts in (("lattice", lattice), ("random", list(scattered))):
        doc = {"schema_version": "1", "points": [[[x, 1], [y, 1]] for x, y in pts],
               "lines": [], "metadata": {"generator": "bench", "params": {"set": name}}}
        docs[f"{name}.json"] = _shuffled(doc, seed, name)
    return docs


def theorem1_calls(cases, options=()):
    return tuple(Call("theorem1", f"grid{n}.json", f"theorem1.n{n}.k{k}.json",
                      ("--k", str(k), "--c", "auto", *options)) for n, k in cases)


CELLS_CASES = [(n, k) for n in (8, 10, 12, 14) for k in (3, 4, 5)]
ONECELL_CASES = [(12, 5), (14, 6)]

WORKLOADS = {w.name: w for w in (
    Workload(
        "search-cells",
        "theorem1 --c auto on grids N=8..14 x k=3..5: the default search path, "
        "dominated by naive incidence builds over up to 8 tried cells",
        grid_documents((8, 10, 12, 14)), theorem1_calls(CELLS_CASES),
        {f"theorem1.n{n}.k{k}.json": (n, k) not in {(8, 5), (12, 4), (12, 5), (14, 5)}
         for n, k in CELLS_CASES}),
    Workload(
        "search-onecell",
        "theorem1 with r forced to 1 on grids (12,5) and (14,6): one big dual, where "
        "degeneracy ordering and clique search weigh as much as incidences",
        grid_documents((12, 14)), theorem1_calls(ONECELL_CASES, ("--beta-k", "1/1000000")),
        {f"theorem1.n{n}.k{k}.json": True for n, k in ONECELL_CASES}),
    Workload(
        "census",
        "generate spanned, analyze, partition on a 12x12 lattice and 140 random points: "
        "triangle count, document I/O and incidences without x-columns",
        census_documents,
        tuple(call for name in ("lattice", "random") for call in (
            Call("generate", f"{name}.json", f"{name}.spanned.json", ("--kind", "spanned")),
            Call("analyze", f"{name}.spanned.json", f"{name}.analyze.json"),
            Call("partition", f"{name}.spanned.json", f"{name}.partition.json", ("--r", "16")),
        ))),
)}


# ------------------------------------------------------------------- checks


class OutputChecker:
    """Checks each call's output once and holds later passes to the same bytes.

    Only digests of first outputs are kept, and parsed documents are dropped
    after every pass, so the checker adds little to the measured peak memory.
    """

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.first: list[bytes | None] = [None] * len(workload.calls)
        self.verdict: list[str | None] = [None] * len(workload.calls)
        self.found: list[bool | None] = [None] * len(workload.calls)
        self.docs: dict[str, checker.Doc] = {}

    def doc(self, name: str, raw: bytes | None = None) -> checker.Doc:
        if name not in self.docs:
            self.docs[name] = checker.Doc(raw if raw is not None
                                          else (self.workdir / name).read_bytes())
        return self.docs[name]

    def check(self, i: int, exit_code: int, output: bytes) -> str | None:
        """None when the call's output is right, else the reason it is not."""
        call = self.workload.calls[i]
        digest = hashlib.sha256(output).digest()
        if self.first[i] is not None:
            if exit_code != (3 if self.found[i] is False else 0):
                return f"{call.output}: exit code {exit_code} differs from the first pass"
            if digest != self.first[i]:
                return f"{call.output}: output bytes differ from the first pass"
            return self.verdict[i]
        self.first[i] = digest
        try:
            self.verdict[i] = self._check_new(call, exit_code, output, i)
        except (checker.CheckError, KeyError, TypeError, ValueError) as exc:
            self.verdict[i] = f"{call.output}: {type(exc).__name__}: {exc}"
        return self.verdict[i]

    def _check_new(self, call: Call, exit_code: int, output: bytes, i: int) -> str | None:
        if call.command == "theorem1":
            if exit_code not in (0, 3):
                return f"theorem1 exit code {exit_code}"
            doc = self.doc(call.input)
            checker.check_grid(doc, doc.metadata["params"]["n"])
            k = int(call.options[call.options.index("--k") + 1])
            self.found[i] = checker.check_theorem1(json.loads(output), doc, exit_code, k)
            return None
        if exit_code != 0:
            return f"{call.command} exit code {exit_code}"
        if call.command == "generate":
            checker.check_spanned(self.doc(call.output, output), self.doc(call.input))
        elif call.command == "analyze":
            checker.check_analyze(json.loads(output), self.doc(call.input))
        else:
            r = int(call.options[call.options.index("--r") + 1])
            checker.check_partition(json.loads(output), self.doc(call.input), r)
        return None


# --------------------------------------------------------------------- runs


@dataclass
class Pass:
    traced: bool
    wall_s: float
    by_command: dict[str, float]
    exit_codes: list[int]
    layers: dict[str, float] | None = None
    spans: list | None = None


def run_pass(workload: Workload, workdir: Path, traced: bool) -> tuple[Pass, list[bytes]]:
    from incidences import cli

    by_command = {call.command: 0.0 for call in workload.calls}
    codes, outputs = [], []
    tr = tracer.Tracer() if traced else None
    if tr:
        tr.install()
    try:
        for call in workload.calls:
            argv = call.argv(workdir)
            out = workdir / call.output
            if out.exists():
                out.unlink()
            start = time.perf_counter()
            code = tr.root("cli.main", cli.main, argv) if tr else cli.main(argv)
            by_command[call.command] += time.perf_counter() - start
            codes.append(code)
            outputs.append(out.read_bytes() if out.exists() else b"")
    finally:
        if tr:
            tr.restore()
    p = Pass(traced, sum(by_command.values()), by_command, codes)
    if tr:
        spans, counts = tr.take()
        p.layers = tracer.layer_table(spans, counts)
        t0 = spans[0][1] if spans else 0.0
        p.spans = [[name, round(s - t0, 9), round(e - t0, 9), parent]
                   for name, s, e, parent in spans]
    return p, outputs


def summary(values: list[float], unit: str = "s") -> dict:
    """Median, sample count and the highest percentile with 10 samples beyond it."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s), "unit": unit, "samples": n, "tail": None,
           "values": values}
    if n > 10:
        pct = 100 * (n - 10) // n
        out["tail"] = {"percentile": pct, "value": s[max(1, math.ceil(pct * n / 100)) - 1]}
    return out


def write_inputs(workload: Workload, seed: int, workdir: Path) -> None:
    from incidences.documents import dumps_canonical

    for name, doc in workload.documents(seed).items():
        (workdir / name).write_text(dumps_canonical(doc), encoding="utf-8")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        # Several set-ups, reporting the median: a single one varies by half.
        setups: list[float] = []
        while len(setups) < 5 or (sum(setups) < 2.0 and len(setups) < 400):
            on_cpu(len(setups))
            start = time.perf_counter()
            write_inputs(workload, seed, workdir)
            setups.append(time.perf_counter() - start)

        outputs_check = OutputChecker(workload, workdir)
        passes: list[Pass] = []
        errors: list[str] = []
        attempted = failed = 0
        begin = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            # A traced pass runs on the same CPU as the untraced pass before it.
            on_cpu(len(passes) // 2 if trace else len(passes))
            p, outputs = run_pass(workload, workdir, traced)
            passes.append(p)
            for i, (code, out) in enumerate(zip(p.exit_codes, outputs)):
                attempted += 1
                reason = outputs_check.check(i, code, out)
                if reason:
                    failed += 1
                    errors.append(f"pass {len(passes)}: {reason}")
            outputs_check.docs.clear()
            typical = statistics.median(q.wall_s for q in passes)
            enough = len(passes) >= (2 if trace else 1)
            if enough and time.perf_counter() - begin + typical > seconds:
                break
    finally:
        on_cpu(None)
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "setup_s": summary(setups),
        "wall_s": summary([p.wall_s for p in untraced]),
        "peak_rss_mb": summary([rss_mb], "MB"),
    }
    commands = sorted({c.command for c in workload.calls})
    if len(commands) > 1:
        for command in commands:
            record[f"{command}_s"] = summary([p.by_command[command] for p in untraced])
    found = [f for f in outputs_check.found if f is not None]
    theorem1 = sum(1 for c in workload.calls if c.command == "theorem1")
    if theorem1:
        record["found_ratio"] = {"value": sum(found) / theorem1, "count": sum(found),
                                 "of": theorem1}
    record["error_ratio"] = {"value": failed / attempted, "count": failed, "of": attempted}

    if trace:
        keys = sorted(set().union(*(p.layers for p in traced_passes)))
        layers = {k: summary([p.layers.get(k, 0.0) for p in traced_passes]) for k in keys}
        layers["traced.wall_s"] = summary([p.wall_s for p in traced_passes])
        layers["untraced.wall_s"] = record["wall_s"]
        metrics = {name: {"value": layers[name]["median"] if name in layers else 0.0,
                          "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        layers = None
        metrics = {name: {"value": record[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}

    expected = workload.found_at_generator_order
    found_by_call = {c.output: f for c, f in zip(workload.calls, outputs_check.found)
                     if f is not None}
    differ = sorted(k for k, v in found_by_call.items() if expected.get(k) != v)
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_taken_in_turn": ALLOWED_CPUS,
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "calls": [" ".join(c.argv(Path("."))) for c in workload.calls],
        "found": found_by_call,
        # Cells and segment runs are chosen by coordinates and the clique search
        # is exhaustive inside a cell, so point order cannot change found/not-found.
        "found_note": ("found/not-found per call matches generator order"
                       if not differ else
                       "found/not-found differs from generator order on " + ", ".join(differ)
                       + "; the search no longer decides by coordinates alone"),
        "end_to_end": record,
        "errors": errors[:20],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if trace:
        result["layers"] = layers
        result["tracing_overhead_s"] = (layers["traced.wall_s"]["median"]
                                        - record["wall_s"]["median"])
        result["spans"] = [p.spans for p in traced_passes]
    return result


def print_result(result: dict) -> None:
    print(f"# {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"passes={result['passes']}  python={result['python']}  nproc={result['nproc']}")
    for name, s in result["end_to_end"].items():
        if "median" in s:
            tail = (f", p{s['tail']['percentile']}={s['tail']['value']:.6g}" if s["tail"]
                    else ", no percentile with 10 samples beyond it")
            print(f"{name} = {s['median']:.6g} {s['unit']} (median of {s['samples']}{tail})")
        else:
            print(f"{name} = {s['value']:.6g} ratio ({s['count']}/{s['of']})")
    print(f"found: {result['found_note']}")
    if "layers" in result:
        own = {k: v["median"] for k, v in result["layers"].items()
               if k.endswith(".self_s") and k.count(".") >= 2}
        for name, value in sorted(own.items(), key=lambda kv: -kv[1])[:12]:
            print(f"{name} = {value:.6g} s")
        print(f"tracing overhead = {result['tracing_overhead_s']:.6g} s "
              f"(traced {result['layers']['traced.wall_s']['median']:.6g} s, "
              f"untraced {result['end_to_end']['wall_s']['median']:.6g} s)")
    for err in result["errors"]:
        print(f"error: {err}")


def check_sources() -> None:
    try:
        import incidences.cli
    except ImportError as exc:
        raise BenchError(f"cannot import the incidences package from {ROOT / 'src'}: {exc}")
    where = Path(incidences.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise BenchError(f"incidences was imported from {where}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_sources()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        path = RESULTS / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print_result(result)
        print(f"result file: {path.relative_to(ROOT)}")
        results.append(result)
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{r['workload']}.{k}": v
                             for r in results for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
