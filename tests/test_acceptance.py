"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The heavy shared worlds (trained buffers plus per-mode runs over held-out
leads) are built once per session and reused across criteria. Everything is
seeded, so these tests are exact reruns, not statistical samples.
"""

import json
import random
import time

import pytest

from leadopt import cli
from leadopt import evaluate as ev
from leadopt import metrics as mx
from leadopt import orchestrate as orc
from leadopt import tools as tl
from leadopt.buffer import TrajectoryBuffer
from leadopt.fingerprint import morgan_fp, tanimoto
from leadopt.molgraph import canonical_form, parse_smiles, write_smiles
from leadopt.seeds import derive_seed

from _molbuild import CURATED_SMILES, lead_pool, permuted_copy, perturb, random_lead, random_molgraph
from _oracles import (
    brute_force_metrics,
    invocation_budget_check,
    is_improvement,
    prefix_match,
    with_flaky_probability,
)

PROPERTY_CYCLE = ("plogp", "qed", "bbbp", "hia", "mutagenicity")
WORLD_SEEDS = ((101, "plogp"), (202, "qed"), (303, "bbbp"), (404, "hia"), (505, "mutagenicity"))


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} {name}: {status}{suffix}")


# ---------------------------------------------------------------------------
# Shared worlds: buffer trained on 200 leads, three modes on 50 held-out leads
# ---------------------------------------------------------------------------


def build_world(seed: int, property_id: str, n_train: int = 200, n_test: int = 50):
    rng = random.Random(seed)
    toolset = tl.builtin_toolset()
    prop = ev.builtin_property(property_id)
    train = [random_lead(rng) for _ in range(n_train)]
    train_canon = {canonical_form(mol) for mol in train}
    test = []
    while len(test) < n_test:
        base = rng.choice(train)
        edits = 1 if len(test) % 2 == 0 else 4
        candidate = perturb(base, rng, edits=edits)
        if canonical_form(candidate) not in train_canon:
            test.append(candidate)

    buffer = TrajectoryBuffer()
    train_runs = []
    for index, lead in enumerate(train):
        config = orc.RunConfig(
            mode="parallel",
            tool_set=toolset,
            property_spec=prop,
            seed=derive_seed(seed, "train", canonical_form(lead)),
            run_id=f"train-{index}",
        )
        result = orc.run_campaign(config, lead)
        train_runs.append((config, result))
        record = orc.trajectory_from_campaign(result)
        if record is not None:
            buffer.insert(record)

    mode_runs = {}
    for mode in ("online", "retrieve", "parallel"):
        runs = []
        for index, lead in enumerate(test):
            config = orc.RunConfig(
                mode=mode,
                tool_set=toolset,
                property_spec=prop,
                seed=derive_seed(seed, "test", canonical_form(lead)),
                buffer=buffer if mode == "retrieve" else None,
                run_id=f"{mode}-{index}",
            )
            runs.append((config, orc.run_campaign(config, lead)))
        mode_runs[mode] = runs
    return {
        "toolset": toolset,
        "property_id": property_id,
        "buffer": buffer,
        "train_runs": train_runs,
        "mode_runs": mode_runs,
    }


@pytest.fixture(scope="module")
def worlds():
    return {seed: build_world(seed, pid) for seed, pid in WORLD_SEEDS}


@pytest.fixture(scope="module")
def campaign_100():
    """Seeded 100-lead parallel run with the property cycle (criteria 3, 4)."""
    rng = random.Random(777)
    toolset = tl.builtin_toolset()
    pairs = []
    for index in range(100):
        lead = random_lead(rng)
        prop = ev.builtin_property(PROPERTY_CYCLE[index % 5])
        config = orc.RunConfig(
            mode="parallel",
            tool_set=toolset,
            property_spec=prop,
            seed=derive_seed(777, canonical_form(lead)),
            run_id=f"c3-{index}",
        )
        pairs.append((config, orc.run_campaign(config, lead)))
    return pairs


# ---------------------------------------------------------------------------
# 1. SMILES round-trip
# ---------------------------------------------------------------------------


def test_criterion_1_smiles_round_trip():
    start = time.perf_counter()
    rng = random.Random(20260809)
    corpus = [parse_smiles(text) for text in CURATED_SMILES]
    corpus += [random_molgraph(rng) for _ in range(500)]
    failures = 0
    for mol in corpus:
        reference = canonical_form(mol)
        rewritten = parse_smiles(write_smiles(parse_smiles(write_smiles(mol))))
        if canonical_form(rewritten) != reference:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    report(1, "smiles-round-trip", ok, f"{len(corpus)} molecules, {failures} failures, {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Fingerprint/Tanimoto properties
# ---------------------------------------------------------------------------


def test_criterion_2_fingerprint_properties():
    start = time.perf_counter()
    rng = random.Random(2024)
    pool = [random_molgraph(rng) for _ in range(120)]
    fps = [morgan_fp(mol) for mol in pool]
    violations = 0
    for _ in range(1000):
        i = rng.randrange(len(pool))
        j = rng.randrange(len(pool))
        forward = tanimoto(fps[i], fps[j])
        backward = tanimoto(fps[j], fps[i])
        if forward != backward:
            violations += 1
        if not 0.0 <= forward <= 1.0:
            violations += 1
        if tanimoto(fps[i], fps[i]) != 1.0:
            violations += 1
        if morgan_fp(permuted_copy(pool[i], rng)) != fps[i]:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    report(2, "fingerprint-properties", ok, f"1000 pairs, {violations} violations, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. Metric oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_metric_oracle_equivalence(campaign_100):
    records = [json.loads(orc.result_to_line(result)) for _, result in campaign_100]
    outcomes = [mx.outcome_from_record(record) for record in records]
    pipeline = mx.compile_report(outcomes)
    oracle = brute_force_metrics(records)
    mismatches = []
    if pipeline.sr != oracle["sr"]:
        mismatches.append("sr")
    if pipeline.sim != oracle["sim"]:
        mismatches.append("sim")
    if pipeline.ri != oracle["ri"]:
        mismatches.append("ri")
    if pipeline.vr != oracle["vr"]:
        mismatches.append("vr")
    if list(pipeline.best_from) != oracle["bf"]:
        mismatches.append("bf")
    if list(pipeline.novelty) != oracle["nov"]:
        mismatches.append("nov")
    if list(pipeline.error_rate) != oracle["er"]:
        mismatches.append("er")
    if list(pipeline.rescue_rate) != oracle["rr"]:
        mismatches.append("rr")
    ok = not mismatches
    report(3, "metric-oracle-equivalence", ok, f"100 leads, mismatches: {mismatches or 'none'}")
    assert not mismatches


# ---------------------------------------------------------------------------
# 4. Budget accounting
# ---------------------------------------------------------------------------


def test_criterion_4_budget_accounting(worlds, campaign_100):
    checked = 0
    bad = 0
    runs = list(campaign_100)
    for world in worlds.values():
        runs.extend(world["train_runs"])
        for mode_runs in world["mode_runs"].values():
            runs.extend(mode_runs)
    for config, result in runs:
        checked += 1
        if not invocation_budget_check(result, config):
            bad += 1
            continue
        for step in result.steps:
            planned = [a for a in step.attempts if not a.retry]
            expected = len(config.tool_set) if config.mode == "parallel" else 1
            if len(planned) != expected:
                bad += 1
            retry_actions = [a.action for a in step.attempts if a.retry]
            if len(retry_actions) != len(set(retry_actions)):
                bad += 1
    ok = bad == 0
    report(4, "budget-accounting", ok, f"{checked} campaigns, {bad} violations")
    assert bad == 0


# ---------------------------------------------------------------------------
# 5. Anchoring
# ---------------------------------------------------------------------------


def test_criterion_5_anchoring(worlds):
    world = worlds[101]
    prop = ev.builtin_property(world["property_id"])
    violations = 0
    successes = 0
    for config, result in world["train_runs"]:  # 200-lead seeded run
        if result.best_seen is None:
            continue
        successes += 1
        lead = parse_smiles(result.lead)
        best = parse_smiles(result.best_seen.smiles)
        sim = tanimoto(morgan_fp(best), morgan_fp(lead))
        if sim < 0.5:
            violations += 1
        initial = ev.evaluate(prop, lead)
        final = ev.evaluate(prop, best)
        if not is_improvement(prop, final, initial):
            violations += 1
    ok = violations == 0 and successes > 0
    report(5, "anchoring", ok, f"200 leads, {successes} successes, {violations} violations")
    assert successes > 0
    assert violations == 0


# ---------------------------------------------------------------------------
# 6. Multi-step benefit
# ---------------------------------------------------------------------------


def test_criterion_6_multi_step_benefit():
    toolset = tl.builtin_toolset()
    seeds_ok = 0
    details = []
    for seed in (11, 22, 33, 44, 55):
        rng = random.Random(seed)
        outcomes = []
        for index in range(100):
            lead = random_lead(rng)
            prop = ev.builtin_property(PROPERTY_CYCLE[index % 5])
            config = orc.RunConfig(
                mode="parallel",
                tool_set=toolset,
                property_spec=prop,
                seed=derive_seed(seed, canonical_form(lead)),
                run_id=f"c6-{index}",
            )
            outcomes.append(
                mx.outcome_from_record(json.loads(orc.result_to_line(orc.run_campaign(config, lead))))
            )
        metrics = mx.compile_report(outcomes)
        bf, nov = metrics.best_from, metrics.novelty
        good = bf[2] >= bf[0] and nov[2] is not None and nov[2] > 0
        seeds_ok += good
        details.append(f"seed {seed}: BF1={bf[0]:.1f} BF3={bf[2]:.1f} Nov3={nov[2]:.1f}")
    ok = seeds_ok >= 4
    report(6, "multi-step-benefit", ok, f"{seeds_ok}/5 seeds; " + "; ".join(details))
    assert seeds_ok >= 4


# ---------------------------------------------------------------------------
# 7. Self-correction rescue
# ---------------------------------------------------------------------------


def test_criterion_7_self_correction_rescue():
    toolset = tl.builtin_toolset()
    flaky = with_flaky_probability(toolset[3], 0.5)
    assert flaky.kind.p_fail == 0.5 and flaky.kind.fail_damping == 0.5
    prop = ev.builtin_property("plogp")
    total_failed_actions = 0
    total_rescued = 0
    sr_drops = 0
    er_reported = True
    for seed in (7, 17, 27, 37, 47):
        rng = random.Random(seed)
        leads = [random_lead(rng) for _ in range(150)]
        per_retry = {}
        for retry in (True, False):
            outcomes = []
            for lead in leads:
                config = orc.RunConfig(
                    mode="online",
                    tool_set=(flaky,),
                    property_spec=prop,
                    seed=derive_seed(seed, canonical_form(lead)),
                    retry=retry,
                    run_id="c7",
                )
                outcomes.append(
                    mx.outcome_from_record(json.loads(orc.result_to_line(orc.run_campaign(config, lead))))
                )
            per_retry[retry] = outcomes
        with_retry = mx.compile_report(per_retry[True])
        er_reported = er_reported and all(value is not None for value in with_retry.error_rate)
        total_failed_actions += sum(
            1 for o in per_retry[True] for s in o.action_stats if s.first_failed
        )
        total_rescued += sum(
            1 for o in per_retry[True] for s in o.action_stats if s.rescued
        )
        if mx.compile_report(per_retry[False]).sr < with_retry.sr:
            sr_drops += 1
    rescue_rate = 100.0 * total_rescued / total_failed_actions
    ok = (
        total_failed_actions >= 200
        and rescue_rate >= 30.0
        and er_reported
        and sr_drops >= 4
    )
    report(
        7,
        "self-correction-rescue",
        ok,
        f"{total_failed_actions} failing actions, RR={rescue_rate:.1f}%, SR drops {sr_drops}/5",
    )
    assert total_failed_actions >= 200
    assert rescue_rate >= 30.0
    assert er_reported
    assert sr_drops >= 4


# ---------------------------------------------------------------------------
# 8. Mode ordering
# ---------------------------------------------------------------------------


def test_criterion_8_mode_ordering(worlds):
    seeds_ok = 0
    details = []
    for seed, world in worlds.items():
        stats = {}
        planned = {}
        for mode, runs in world["mode_runs"].items():
            outcomes = [
                mx.outcome_from_record(json.loads(orc.result_to_line(result))) for _, result in runs
            ]
            metrics = mx.compile_report(outcomes)
            stats[mode] = (metrics.sr, metrics.ri)
            planned[mode] = sum(
                1
                for _, result in runs
                for step in result.steps
                for attempt in step.attempts
                if not attempt.retry
            )
        ri = {mode: stats[mode][1] for mode in stats}
        assert all(value is not None for value in ri.values())
        ordering = ri["online"] <= ri["retrieve"] <= ri["parallel"]
        sr_ok = stats["retrieve"][0] >= stats["online"][0]
        seeds_ok += ordering and sr_ok
        # Exact invocation arithmetic: retrieve plans one call per step where
        # parallel plans the whole tool set.
        assert planned["retrieve"] * len(world["toolset"]) == planned["parallel"]
        details.append(
            f"seed {seed} RI {ri['online']:.1f}/{ri['retrieve']:.1f}/{ri['parallel']:.1f}"
        )
    ok = seeds_ok >= 4
    report(8, "mode-ordering", ok, f"{seeds_ok}/5 seeds; " + "; ".join(details))
    assert seeds_ok >= 4


# ---------------------------------------------------------------------------
# 9. Trajectory-similarity correlation
# ---------------------------------------------------------------------------


def test_criterion_9_trajectory_similarity_correlation(worlds):
    seeds_ok = 0
    details = []
    for seed, world in worlds.items():
        low = []
        high = []
        for config, result in world["mode_runs"]["parallel"]:
            own = orc.trajectory_from_campaign(result)
            if own is None:
                continue
            hit = world["buffer"].top1_similar(
                parse_smiles(result.lead), world["property_id"]
            )
            if hit is None or hit[1] < 0.5:
                continue
            bucket = high if hit[1] >= 0.7 else low
            bucket.append(prefix_match(own, hit[0], 1))
        good = (
            bool(low)
            and bool(high)
            and sum(high) / len(high) > sum(low) / len(low)
        )
        seeds_ok += good
        details.append(
            f"seed {seed}: low {sum(low)}/{len(low)} high {sum(high)}/{len(high)}"
        )
    ok = seeds_ok >= 4
    report(9, "trajectory-similarity-correlation", ok, f"{seeds_ok}/5 seeds; " + "; ".join(details))
    assert seeds_ok >= 4


# ---------------------------------------------------------------------------
# 10. Determinism and wall-clock bound
# ---------------------------------------------------------------------------


def test_criterion_10_determinism_and_speed(tmp_path):
    leads = lead_pool(2026, 100)
    dataset = tmp_path / "leads.jsonl"
    with open(dataset, "w", encoding="utf-8") as handle:
        for index, lead in enumerate(leads):
            row = {
                "smiles": canonical_form(lead),
                "property": PROPERTY_CYCLE[index % 5],
            }
            handle.write(json.dumps(row) + "\n")

    first = tmp_path / "run-a.jsonl"
    second = tmp_path / "run-b.jsonl"
    start = time.perf_counter()
    assert (
        cli.main(
            ["run", "--mode", "parallel", "--dataset", str(dataset), "--seed", "42", "--out", str(first)]
        )
        == 0
    )
    elapsed = time.perf_counter() - start
    assert (
        cli.main(
            ["run", "--mode", "parallel", "--dataset", str(dataset), "--seed", "42", "--out", str(second)]
        )
        == 0
    )
    results_identical = first.read_bytes() == second.read_bytes()

    buffer_a = tmp_path / "buffer-a.jsonl"
    buffer_b = tmp_path / "buffer-b.jsonl"
    for path in (buffer_a, buffer_b):
        assert (
            cli.main(
                ["build-buffer", "--dataset", str(dataset), "--seed", "42", "--out", str(path)]
            )
            == 0
        )
    buffers_identical = buffer_a.read_bytes() == buffer_b.read_bytes()

    ok = results_identical and buffers_identical and elapsed < 60.0
    report(
        10,
        "determinism-and-speed",
        ok,
        f"100-lead campaign in {elapsed:.1f}s, results identical: {results_identical}, "
        f"buffers identical: {buffers_identical}",
    )
    assert results_identical
    assert buffers_identical
    assert elapsed < 60.0
