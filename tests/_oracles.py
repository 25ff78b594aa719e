"""Acceptance-criterion oracles and helpers that only the tests use.

``prefix_match`` (criterion 7) and ``invocation_budget_check`` (criterion 4)
judge campaign output from outside the engine, so they live beside the
tests that apply them rather than in the package.
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
