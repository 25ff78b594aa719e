"""Acceptance-criterion oracles and helpers that only the tests use.

``prefix_match`` (criterion 7), ``invocation_budget_check`` (criterion 4)
and ``brute_force_metrics`` (criterion 3) judge campaign output from outside
the engine, so they live beside the tests that apply them rather than in
the package.
"""

from __future__ import annotations

from dataclasses import replace

from leadopt import evaluate as ev
from leadopt import tools as tl
from leadopt.buffer import TrajectoryRecord
from leadopt.orchestrate import CampaignResult, RunConfig


def prefix_match(a: TrajectoryRecord, b: TrajectoryRecord, k: int) -> bool:
    """Whether the first k tool-action nodes agree (both must have >= k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(a.actions) < k or len(b.actions) < k:
        return False
    return a.actions[:k] == b.actions[:k]


def invocation_budget_check(result: CampaignResult, config: RunConfig) -> bool:
    """Planned calls match the mode's budget; at most one retry per action."""
    total = 0
    for record in result.steps:
        planned = [a for a in record.attempts if not a.retry]
        retries = [a for a in record.attempts if a.retry]
        if len(planned) != config.budget:
            return False
        if len(record.plan) != config.budget:
            return False
        retry_actions = [a.action for a in retries]
        if len(retry_actions) != len(set(retry_actions)):
            return False
        if not set(retry_actions) <= {a.action for a in planned}:
            return False
        total += len(planned) + len(retries)
    if total != result.invocation_count:
        return False
    return total <= config.steps * config.budget * 2


def is_improvement(spec: ev.PropertySpec, new: ev.PropertyValue, ref: ev.PropertyValue) -> bool:
    """Strictly better than ref in the preferred direction.

    ``relative_improvement`` takes (initial, final); this names the new value
    first so a call site cannot swap the two by accident.
    """
    return ev.relative_improvement(spec, ref, new).improved


def with_flaky_probability(spec: tl.ToolSpec, p_fail: float) -> tl.ToolSpec:
    """Copy of a builtin tool spec with a different corruption probability."""
    if not isinstance(spec.kind, tl.ToolProfile):
        raise ValueError("only builtin tools have a failure probability")
    return replace(spec, kind=replace(spec.kind, p_fail=p_fail))


def brute_force_metrics(records: list[dict]) -> dict:
    """Independent recomputation of every metric from raw step records."""
    n = len(records)
    succeeded = [r for r in records if r["best_seen"] is not None]
    sr = 100.0 * len(succeeded) / n

    sims = [r["best_seen"]["sim"] for r in succeeded]
    sim = 100.0 * sum(sims) / len(sims) if sims else None

    eligible = [
        r["best_seen"]["relative_improvement"]
        for r in succeeded
        if r["best_seen"]["sim"] >= 0.5 and r["best_seen"]["relative_improvement"] is not None
    ]
    ri = 100.0 * sum(eligible) / len(eligible) if eligible else None

    total = valid = 0
    for record in records:
        for step in record["steps"]:
            for attempt in step["attempts"]:
                for candidate in attempt["candidates"]:
                    total += 1
                    valid += candidate["valid"]
    vr = 100.0 * valid / total if total else None

    steps = max(len(r["steps"]) for r in records)
    bf_counts = [0] * steps
    for record in succeeded:
        bf_counts[record["best_seen"]["step_index"]] += 1
    bf = [100.0 * c / len(succeeded) for c in bf_counts] if succeeded else []

    novel = [0] * steps
    passing = [0] * steps
    for record in records:
        prior: set = set()
        for step in record["steps"]:
            idx = step["step_index"]
            step_candidates = [
                c for attempt in step["attempts"] for c in attempt["candidates"]
            ]
            for candidate in step_candidates:
                if candidate["passed"]:
                    passing[idx] += 1
                    if candidate["canonical"] not in prior:
                        novel[idx] += 1
            for candidate in step_candidates:
                if candidate["canonical"] is not None:
                    prior.add(candidate["canonical"])
    nov = [100.0 * novel[s] / passing[s] if passing[s] else None for s in range(steps)]

    cand_total = [0] * steps
    cand_fail = [0] * steps
    action_fail = [0] * steps
    action_rescued = [0] * steps
    for record in records:
        for step in record["steps"]:
            idx = step["step_index"]
            failed_first: dict = {}
            for attempt in step["attempts"]:
                attempt_pass = False
                for candidate in attempt["candidates"]:
                    cand_total[idx] += 1
                    cand_fail[idx] += not candidate["passed"]
                    attempt_pass = attempt_pass or candidate["passed"]
                key = (attempt["tool_id"], attempt["prompt_index"])
                if not attempt["retry"]:
                    if not attempt_pass:
                        failed_first[key] = False
                elif key in failed_first:
                    failed_first[key] = failed_first[key] or attempt_pass
            action_fail[idx] += len(failed_first)
            action_rescued[idx] += sum(failed_first.values())
    er = [100.0 * cand_fail[s] / cand_total[s] if cand_total[s] else None for s in range(steps)]
    rr = [
        100.0 * action_rescued[s] / action_fail[s] if action_fail[s] else None
        for s in range(steps)
    ]
    return {"sr": sr, "sim": sim, "ri": ri, "vr": vr, "bf": bf, "nov": nov, "er": er, "rr": rr}
