"""Self-tests of the campaign benchmark.

Run from the repository root: ``python3 -m pytest campaign_bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from endpoints import evaluator, tool  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_inputs_are_byte_stable_for_a_seed(tmp_path, name):
    workload = run.WORKLOADS[name]
    first = run.prepare(workload, 11, tmp_path / "a")
    second = run.prepare(workload, 11, tmp_path / "b")
    other = run.prepare(workload, 12, tmp_path / "c")
    assert first.digest() == second.digest()
    assert first.digest() != other.digest()


def test_default_seed_reproduces_the_acceptance_lead_pool():
    helpers = ROOT / "tests" / "_molbuild.py"
    if not helpers.exists():
        pytest.skip("acceptance helpers not present")
    sys.path.insert(0, str(helpers.parent))
    from _molbuild import lead_pool

    from leadopt.molgraph import canonical_form

    ours = [canonical_form(m) for m in workloads.asymmetric_leads(2026, 100)]
    assert ours == [canonical_form(m) for m in lead_pool(2026, 100)]


def test_star_leads_carry_identical_stars_within_size():
    for mol in workloads.star_leads(5):
        assert len(mol.atoms) <= 22
    counts = sorted(core.count("{}") for core in workloads.STAR_CORES)
    assert counts[0] == 2 and counts[-1] == 4


def test_synthetic_buffer_loads_with_verification(tmp_path):
    from leadopt.buffer import TrajectoryBuffer

    buffer, leads = workloads.synthetic_buffer(3, 25)
    path = tmp_path / "buffer.jsonl"
    buffer.flush(str(path))
    loaded = TrajectoryBuffer.load(str(path), verify=True)
    assert len(loaded) == 25 == len(leads)
    neighbours = workloads.held_out_neighbours(3, leads, 10)
    stored = {r.lead for p in loaded.properties() for r in loaded.records(p)}
    from leadopt.molgraph import canonical_form

    assert not stored & {canonical_form(m) for m in neighbours}


# ---------------------------------------------------------------------------
# Endpoint fixtures
# ---------------------------------------------------------------------------


def test_tool_fixture_fails_a_seeded_share_and_otherwise_replies_spans():
    payloads = [json.dumps({"smiles": f"CCO{'C' * i}"}).encode() for i in range(200)]
    replies = [tool.reply(7, p) for p in payloads]
    failures = sum(r is None for r in replies)
    assert 10 <= failures <= 60
    assert all(r.count("<SMILES>") == tool.SPANS for r in replies if r is not None)
    assert replies == [tool.reply(7, p) for p in payloads]


def test_evaluator_fixture_errors_per_index_for_any_length():
    smiles = [f"CC{'N' * i}" for i in range(60)]
    reply = evaluator.respond(4, {"property_id": "plogp", "smiles_list": smiles})
    assert len(reply["values"]) == len(smiles)
    bad = {index for index, _ in reply["errors"]}
    assert 0 < len(bad) < len(smiles)
    assert all((reply["values"][i] is None) == (i in bad) for i in range(len(smiles)))


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def test_gate_rejects_wrong_budget_accounting():
    attempt = {"tool_id": "swap", "prompt_index": 0, "retry": False, "candidates": []}
    step = {"step_index": 0, "plan": [{"tool_id": "swap", "prompt_index": 0}], "attempts": [attempt]}
    good = {"steps": [step], "invocation_count": 1}
    assert run.budget_problems(good, 1) == []
    assert run.budget_problems({"steps": [step], "invocation_count": 2}, 1)
    assert run.budget_problems(good, 4)
    twice = dict(step, attempts=[attempt, dict(attempt, retry=True), dict(attempt, retry=True)])
    assert run.budget_problems({"steps": [twice], "invocation_count": 3}, 1)


def test_gate_counts_missing_and_error_lines(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text(json.dumps({"lead": "C", "error": "boom"}) + "\n", encoding="utf-8")
    gate = run.check_result(path, 3, 1, 0)
    assert (gate.error_lines, gate.missing_lines, gate.problems) == (1, 2, [])
    assert run.check_result(path, 3, 1, 1).failed_leads == 4


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_spans_nest_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("test.inner", lambda: None)
    outer = tracer.wrap("test.outer", lambda label: [inner() for _ in range(50)], run_id_of=lambda a: a[0])
    threads = [threading.Thread(target=outer, args=(f"run-{i}",)) for i in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    spans = tracer.spans()
    by_id = {span.id: span for span in spans}
    outers = [s for s in spans if s.name == "test.outer"]
    inners = [s for s in spans if s.name == "test.inner"]
    assert len(outers) == 4 and len(inners) == 200
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "test.outer"
        assert parent.thread == span.thread and parent.run_id == span.run_id
    for span in outers:
        assert 0 <= span.self_ns <= span.duration_ns


def test_tracer_restores_every_binding():
    import leadopt.buffer
    import leadopt.cli
    import leadopt.molgraph
    import leadopt.orchestrate

    before = (
        leadopt.orchestrate.validate,
        leadopt.cli.text_endpoint,
        leadopt.buffer.TrajectoryBuffer.__dict__["load"],
    )
    with Tracer().installed():
        assert leadopt.orchestrate.validate is not before[0]
        assert leadopt.molgraph.validate is leadopt.orchestrate.validate
    after = (
        leadopt.orchestrate.validate,
        leadopt.cli.text_endpoint,
        leadopt.buffer.TrajectoryBuffer.__dict__["load"],
    )
    assert after == before


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


def _printed_names(proc: subprocess.CompletedProcess) -> set[str]:
    return {
        line.split(" = ")[0]
        for line in proc.stdout.splitlines()
        if " = " in line and not line.startswith(("result_sha256", "correct"))
    }


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("--workload", "symmetric", "--seed", "3", "--seconds", "0", "--trace", "0")
    result = result_of(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert _printed_names(proc) == set(declared)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_external_run_keeps_bytes_and_hits_fixture_error_paths():
    proc = bench("--workload", "external", "--seed", "2026", "--seconds", "0", "--trace", "1")
    result = result_of(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # correct covers equal result digests across children, untraced and traced passes
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert _printed_names(proc) == set(declared)
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["tools.unavailable"] > 0
    assert metrics["evaluate.external.errors"] > 0
    inside, _, other_share = layers.dominant_share("external", {n: (v, "") for n, v in metrics.items()})
    assert inside > other_share


def test_benchmark_spec_matches_the_code():
    assert set(SPEC["paths"]) == {BENCH_DIR.name}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.METRICS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "parallel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
