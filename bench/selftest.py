"""Self-tests of the benchmark harness.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

They run small workloads through the same code paths as ``run.py``: traced
and untraced passes must write identical bytes, self times must add up to the
traced wall time, a tampered certificate must count as an error, the tracer
must put every original back, BENCHMARK.json must name the metrics and
workloads ``run.py`` emits, and the benchmark must refuse to run without the
package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run      # noqa: E402
import tracer   # noqa: E402

SMALL = run.Workload(
    "small", "grid N=3 with k=4 has no certificate, N=5 with k=3 has one",
    run.grid_documents((3, 5)), run.theorem1_calls([(3, 4), (5, 3)]))


def _workdir() -> Path:
    run.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))


def _passes(workload, seed=7):
    workdir = _workdir()
    try:
        run.write_inputs(workload, seed, workdir)
        plain, plain_out = run.run_pass(workload, workdir, traced=False)
        traced, traced_out = run.run_pass(workload, workdir, traced=True)
        check = run.OutputChecker(workload, workdir)
        reasons = [check.check(i, code, out)
                   for p, outs in ((plain, plain_out), (traced, traced_out))
                   for i, (code, out) in enumerate(zip(p.exit_codes, outs))]
        return plain, plain_out, traced, traced_out, reasons
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_traced_and_untraced_reports_are_identical():
    for workload in (SMALL, run.WORKLOADS["census"]):
        plain, plain_out, traced, traced_out, reasons = _passes(workload)
        assert plain.exit_codes == traced.exit_codes
        assert plain_out == traced_out and all(plain_out)
        assert reasons == [None] * len(reasons), reasons
    assert plain.exit_codes == [0] * 6


def test_self_times_add_up_to_the_traced_wall_time():
    plain, _, traced, _, _ = _passes(run.WORKLOADS["census"])
    own = sum(v for k, v in traced.layers.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert abs(own - traced.wall_s) <= 0.01 * traced.wall_s, (own, traced.wall_s)
    overhead = traced.wall_s - plain.wall_s
    print(f"census: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s, "
          f"self times {own:.3f} s, overhead {overhead:.3f} s")


def test_counts_of_a_search_pass():
    _, _, traced, _, _ = _passes(SMALL)
    layers = traced.layers
    assert layers["cli.main.calls"] == 2
    assert layers["pipeline.find_complete_tuple.calls"] == 2
    # One primal build per call plus one dual build per attempted cell.
    assert layers["arrangement.incidences.builds"] == 2 + layers["arrangement.dualize.calls"]
    assert layers["pipeline.cells_found"] == 1
    assert layers["arrangement.measured_density.calls"] == 4


def test_tampered_certificate_is_an_error():
    workdir = _workdir()
    try:
        run.write_inputs(SMALL, 7, workdir)
        p, outputs = run.run_pass(SMALL, workdir, traced=False)
        assert p.exit_codes == [3, 0]
        report = json.loads(outputs[1])
        doc = checker.Doc((workdir / "grid5.json").read_bytes())
        cert = report["result"]["certificate"]
        # Move one certificate point to another arrangement point that keeps
        # the index list sorted and distinct; the document is unchanged.
        first = cert["point_indices"][0]
        taken = set(cert["point_indices"])
        moved = next(i for i in range(doc.n) if i not in taken and i < cert["point_indices"][1]
                     and doc.points[i] != doc.points[first])
        cert["point_indices"][0] = moved
        cert["points"][0] = doc.raw_points[moved]
        for entry in cert["connecting_lines"] + cert["locality"]:
            entry["pair"] = [moved if i == first else i for i in entry["pair"]]
        tampered = json.dumps(report).encode()
        fresh = run.OutputChecker(SMALL, workdir)
        assert fresh.check(1, 0, tampered) is not None
        # Shifting a coordinate in place is caught too.
        report = json.loads(outputs[1])
        report["result"]["certificate"]["points"][0][1][0] += 1
        fresh = run.OutputChecker(SMALL, workdir)
        assert fresh.check(1, 0, json.dumps(report).encode()) is not None
        # The untouched report passes, and a later pass must repeat its bytes.
        fresh = run.OutputChecker(SMALL, workdir)
        assert fresh.check(1, 0, outputs[1]) is None
        assert fresh.check(1, 0, outputs[1] + b" ") is not None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_tracer_restores_every_original():
    import incidences.cli  # noqa: F401  (loads every module of the package)
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "incidences" or name.startswith("incidences.")}
    cls = sys.modules["incidences.arrangement"].Arrangement
    before = dict(vars(cls))
    t = tracer.Tracer()
    t.install()
    for name, attr in (("incidences.pipeline", "dualize"), ("incidences.cli", "count_triangles")):
        assert getattr(sys.modules[name], attr) is not modules[name][attr]
    t.restore()
    for name, snapshot in modules.items():
        current = vars(sys.modules[name])
        assert all(current[k] is v for k, v in snapshot.items()), name
    assert all(vars(cls)[k] is v for k, v in before.items())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources():
    bare = _workdir()
    try:
        (bare / "bench").mkdir()
        for f in Path(__file__).resolve().parent.glob("*.py"):
            shutil.copy(f, bare / "bench" / f.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "census",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 2 and proc.stdout == "", (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
