"""Tests of the benchmark itself: reference kernel, tracer, digest, metric list.

Run with: python -m pytest -q perfbench
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gkzmono  # noqa: E402
import hostref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_reference_kernel_imports_only_the_standard_library():
    tree = ast.parse((HERE / "hostref.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "time", "fractions"}
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hostref; "
        "hostref.time_reference(); "
        "print([m for m in sys.modules if m.split('.')[0] == 'gkzmono'])"
    )
    out = subprocess.run([sys.executable, "-c", probe, str(HERE)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_reference_kernel_is_frozen():
    assert hostref.reference() == hostref.CHECKSUM


def _small(workload, count=4):
    wl = workloads.WORKLOADS[workload](run.DEFAULT_SEED, count)
    wl.warm_up()
    return wl


def test_untraced_run_leaves_every_binding_identical():
    wl = _small("config_corpus")
    before = tracing.bindings_snapshot()
    run.measure(wl, wl.ops, (gkzmono.GkzError, workloads.OpFailed))
    assert tracing.bindings_snapshot() == before


def test_tracer_rebinds_every_binding_and_restores_them():
    before = tracing.bindings_snapshot()
    original = gkzmono.classify
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # The package re-exports and the CLI's import are rebound too.
        assert gkzmono.classify is not original
        assert sys.modules["gkzmono.classify"].classify is gkzmono.classify
        assert sys.modules["gkzmono.cli"].classify is gkzmono.classify
        assert tracer.absent == []
        tracer.op_id = 0
        gkzmono.classify(gkzmono.IntMatrix([[1, 1, 1], [0, 1, 2]]), [-1, 0])
    finally:
        tracer.uninstall()
    assert tracing.bindings_snapshot() == before
    totals = tracer.totals([1.0])
    assert totals["classify.classify"][0] == 1
    assert totals["cones.reduce_configuration"][0] >= 1
    assert totals["cones.Configuration.face_lattice"][0] == 1
    assert totals["cones.is_face"][0] >= 1  # brute path, aggregated per parent
    assert all(record is not None for record in tracer.records)


def test_tracer_reports_missing_names_as_absent():
    tracer = tracing.Tracer()
    before = tracing.bindings_snapshot()
    tracer.install(names=("cones.no_such_function", "no_such_module.f",
                          "cones.NoSuchClass.method"))
    tracer.uninstall()
    assert tracer.absent == ["cones.no_such_function", "no_such_module.f",
                             "cones.NoSuchClass.method"]
    assert tracing.bindings_snapshot() == before


def test_default_seed_digests_match_the_committed_ones():
    expected = json.loads((HERE / "expected_digest.json").read_text())
    for name in workloads.WORKLOADS:
        wl = _small(name, workloads.DIGEST_OPS)
        outcomes, errors, _, _ = run.measure(wl, wl.ops, (gkzmono.GkzError, workloads.OpFailed))
        assert errors == [None] * len(wl.ops)
        problems, lines = wl.check(outcomes)
        assert not any(problems), name
        assert workloads.digest(lines) == expected[name], name


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(tracing.SPANS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
