"""Campaign-level reporting: SR, SIM, RI, VR plus per-step ablation series.

All metrics are pure aggregations over SampleOutcome values distilled from
serialized campaign records, so an independent pass over the raw records can
reproduce every number exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .buffer import json_field

RI_SIM_FLOOR = 0.5  # eligibility threshold for the relative-improvement mean

_NONE = type(None)


class EmptyInputError(ValueError):
    """Metric requires at least one sample / generated candidate."""


class NoSuccessesError(ValueError):
    """Metric is defined over successful samples only and none exist."""


@dataclass(frozen=True)
class GeneratedCandidate:
    smiles: str
    canonical: str | None
    valid: bool
    step_index: int
    passed: bool


@dataclass(frozen=True)
class ActionStat:
    step_index: int
    first_failed: bool
    rescued: bool


@dataclass(frozen=True)
class SampleOutcome:
    lead: str
    succeeded: bool
    sim: float | None
    ri: float | None  # None when undefined (zero initial value), flagged
    best_step: int | None
    n_steps: int
    generated: tuple[GeneratedCandidate, ...]
    action_stats: tuple[ActionStat, ...]


def _step_index(container: dict, n_steps: int) -> int:
    index = json_field(container, "step_index", int)
    if not 0 <= index < n_steps:
        raise ValueError(f"step_index {index} out of range for {n_steps} steps")
    return index


def outcome_from_record(record: dict) -> SampleOutcome:
    """Distill one serialized campaign record into its metric inputs.

    Raises KeyError, TypeError or ValueError for a field that is missing or
    whose type, value or range the record writer never gives it: a
    non-finite number among them.
    """
    generated: list[GeneratedCandidate] = []
    pending: dict[tuple[int, str, int], dict] = {}
    steps = json_field(record, "steps", list)
    for step in steps:
        step_index = _step_index(step, len(steps))
        for attempt in json_field(step, "attempts", list):
            attempt_passed = False
            for cand in json_field(attempt, "candidates", list):
                valid = json_field(cand, "valid", bool)
                passed = json_field(cand, "passed", bool)
                generated.append(
                    GeneratedCandidate(
                        smiles=json_field(cand, "smiles", str),
                        canonical=json_field(cand, "canonical", str, _NONE),
                        valid=valid,
                        step_index=step_index,
                        passed=passed,
                    )
                )
                attempt_passed = attempt_passed or passed
                json_field(cand, "improvement_vs_lead", int, float, _NONE)  # type check only
            tool_id = json_field(attempt, "tool_id", str)
            key = (step_index, tool_id, json_field(attempt, "prompt_index", int))
            if not json_field(attempt, "retry", bool):
                pending[key] = {
                    "step_index": step_index,
                    "first_failed": not attempt_passed,
                    "rescued": False,
                }
            elif key in pending:
                pending[key]["rescued"] = attempt_passed
    action_stats = [ActionStat(**stat) for stat in pending.values()]

    best = record.get("best_seen")
    return SampleOutcome(
        lead=json_field(record, "lead", str),
        succeeded=best is not None,
        sim=None if best is None else json_field(best, "sim", int, float),
        ri=None if best is None else json_field(best, "relative_improvement", int, float, _NONE),
        best_step=None if best is None else _step_index(best, len(steps)),
        n_steps=len(steps),
        generated=tuple(generated),
        action_stats=tuple(action_stats),
    )


def success_rate(outcomes: list[SampleOutcome]) -> float:
    """Share of samples with a valid, constraint-satisfying improvement."""
    if not outcomes:
        raise EmptyInputError("no samples")
    wins = sum(1 for o in outcomes if o.succeeded)
    return 100.0 * wins / len(outcomes)


def similarity_avg(outcomes: list[SampleOutcome]) -> float:
    sims = [o.sim for o in outcomes if o.succeeded]
    if not sims:
        raise NoSuccessesError("similarity is averaged over successful samples")
    return 100.0 * sum(sims) / len(sims)


def relative_improvement_avg(outcomes: list[SampleOutcome]) -> float | None:
    """Mean relative gain over successes with sim >= 0.5; None when empty.

    Samples whose initial value was zero carry ri=None and are excluded
    (their count is surfaced by compile_report).
    """
    eligible = [
        o.ri
        for o in outcomes
        if o.succeeded and o.sim is not None and o.sim >= RI_SIM_FLOOR and o.ri is not None
    ]
    if not eligible:
        return None
    return 100.0 * sum(eligible) / len(eligible)


def validity_rate(outcomes: list[SampleOutcome]) -> float:
    total = valid = 0
    for outcome in outcomes:
        for cand in outcome.generated:
            total += 1
            valid += cand.valid
    if total == 0:
        raise EmptyInputError("no generated candidates")
    return 100.0 * valid / total


def _step_count(outcomes: list[SampleOutcome]) -> int:
    return max((o.n_steps for o in outcomes), default=0)


def best_from(outcomes: list[SampleOutcome]) -> list[float]:
    """Per step: share of successes whose best candidate arose there."""
    succeeded = [o for o in outcomes if o.succeeded]
    if not succeeded:
        raise NoSuccessesError("BestFrom is defined over successful samples")
    steps = _step_count(outcomes)
    counts = [0] * steps
    for outcome in succeeded:
        counts[outcome.best_step] += 1
    return [100.0 * count / len(succeeded) for count in counts]


def novelty(outcomes: list[SampleOutcome]) -> list[float | None]:
    """Per step: share of passing candidates not generated earlier.

    Prior structures are scoped to the candidate's own trajectory; a step
    with no passing candidates anywhere reports None.
    """
    steps = _step_count(outcomes)
    novel = [0] * steps
    passing = [0] * steps
    for outcome in outcomes:
        seen_before: set[str] = set()
        by_step: dict[int, list[GeneratedCandidate]] = {}
        for cand in outcome.generated:
            by_step.setdefault(cand.step_index, []).append(cand)
        for step in range(outcome.n_steps):
            for cand in by_step.get(step, []):
                if cand.passed:
                    passing[step] += 1
                    if cand.canonical not in seen_before:
                        novel[step] += 1
            for cand in by_step.get(step, []):
                if cand.canonical is not None:
                    seen_before.add(cand.canonical)
    return [
        (100.0 * novel[s] / passing[s]) if passing[s] else None for s in range(steps)
    ]


def error_and_rescue(
    outcomes: list[SampleOutcome],
) -> tuple[list[float | None], list[float | None]]:
    """Per step (error rate, rescue rate); rates with no denominator are None."""
    steps = _step_count(outcomes)
    candidates = [0] * steps
    failing = [0] * steps
    first_failed = [0] * steps
    rescued = [0] * steps
    for outcome in outcomes:
        for cand in outcome.generated:
            candidates[cand.step_index] += 1
            failing[cand.step_index] += not cand.passed
        for stat in outcome.action_stats:
            if stat.first_failed:
                first_failed[stat.step_index] += 1
                rescued[stat.step_index] += stat.rescued
    error_rate = [
        (100.0 * failing[s] / candidates[s]) if candidates[s] else None
        for s in range(steps)
    ]
    rescue_rate = [
        (100.0 * rescued[s] / first_failed[s]) if first_failed[s] else None
        for s in range(steps)
    ]
    return error_rate, rescue_rate


@dataclass(frozen=True)
class MetricReport:
    sr: float
    sim: float | None
    ri: float | None
    vr: float
    best_from: tuple[float, ...]
    novelty: tuple[float | None, ...]
    error_rate: tuple[float | None, ...]
    rescue_rate: tuple[float | None, ...]
    counts: dict


def compile_report(outcomes: list[SampleOutcome]) -> MetricReport:
    if not outcomes:
        raise EmptyInputError("no samples")
    n_succeeded = sum(1 for o in outcomes if o.succeeded)
    ri_zero_excluded = sum(
        1
        for o in outcomes
        if o.succeeded and o.sim is not None and o.sim >= RI_SIM_FLOOR and o.ri is None
    )
    ri_eligible = sum(
        1
        for o in outcomes
        if o.succeeded and o.sim is not None and o.sim >= RI_SIM_FLOOR and o.ri is not None
    )
    n_generated = sum(len(o.generated) for o in outcomes)
    n_valid = sum(sum(1 for c in o.generated if c.valid) for o in outcomes)
    try:
        sim = similarity_avg(outcomes)
    except NoSuccessesError:
        sim = None
    try:
        bf = tuple(best_from(outcomes))
    except NoSuccessesError:
        bf = tuple()
    error_rate, rescue_rate = error_and_rescue(outcomes)
    return MetricReport(
        sr=success_rate(outcomes),
        sim=sim,
        ri=relative_improvement_avg(outcomes),
        vr=validity_rate(outcomes),
        best_from=bf,
        novelty=tuple(novelty(outcomes)),
        error_rate=tuple(error_rate),
        rescue_rate=tuple(rescue_rate),
        counts={
            "samples": len(outcomes),
            "succeeded": n_succeeded,
            "ri_eligible": ri_eligible,
            "ri_zero_initial_excluded": ri_zero_excluded,
            "generated": n_generated,
            "valid": n_valid,
            "steps": _step_count(outcomes),
        },
    )


def _fmt(value: float | None) -> str:
    return "--" if value is None else f"{value:.2f}"


def render_table(report: MetricReport, label: str = "campaign") -> str:
    """Aligned text table in SR / SIM / RI / VR column order."""
    header = f"{'run':<24}{'SR':>10}{'SIM':>10}{'RI':>10}{'VR':>10}"
    row = (
        f"{label:<24}{_fmt(report.sr):>10}{_fmt(report.sim):>10}"
        f"{_fmt(report.ri):>10}{_fmt(report.vr):>10}"
    )
    counts = report.counts
    footer = (
        f"samples={counts['samples']} succeeded={counts['succeeded']} "
        f"ri_eligible={counts['ri_eligible']} "
        f"ri_zero_initial_excluded={counts['ri_zero_initial_excluded']} "
        f"generated={counts['generated']} valid={counts['valid']}"
    )
    return "\n".join((header, row, footer))


def per_step_csv(report: MetricReport) -> str:
    """CSV of the per-step series (1-based step labels for plotting)."""
    out = io.StringIO()
    out.write("step,error_rate,rescue_rate,best_from,novelty\n")
    steps = report.counts["steps"]

    def cell(series: tuple, index: int) -> str:
        if index >= len(series) or series[index] is None:
            return ""
        return f"{series[index]:.2f}"

    for step in range(steps):
        out.write(
            f"{step + 1},{cell(report.error_rate, step)},{cell(report.rescue_rate, step)},"
            f"{cell(report.best_from, step)},{cell(report.novelty, step)}\n"
        )
    return out.getvalue()
