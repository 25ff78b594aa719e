"""Campaign-level reporting: SR, SIM, RI, VR plus per-step ablation series.

All metrics are pure aggregations over SampleOutcome values distilled from
serialized campaign records, so an independent pass over the raw records can
reproduce every number exactly. Each metric is a percent of a count; one
whose count has no denominator (SIM with no success, VR with no generated
candidate, an error rate at a step without candidates) is None, which the
table prints as ``--`` and the CSV leaves blank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .buffer import json_field

RI_SIM_FLOOR = 0.5  # eligibility threshold for the relative-improvement mean

_NONE = type(None)


class EmptyInputError(ValueError):
    """A report needs at least one sample."""


@dataclass(frozen=True)
class GeneratedCandidate:
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
                json_field(cand, "smiles", str)  # type check only
                generated.append(
                    GeneratedCandidate(
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

    json_field(record, "lead", str)  # type check only
    best = json_field(record, "best_seen", dict, _NONE)
    return SampleOutcome(
        succeeded=best is not None,
        sim=None if best is None else json_field(best, "sim", int, float),
        ri=None if best is None else json_field(best, "relative_improvement", int, float, _NONE),
        best_step=None if best is None else _step_index(best, len(steps)),
        n_steps=len(steps),
        generated=tuple(generated),
        action_stats=tuple(action_stats),
    )


@dataclass(frozen=True)
class MetricReport:
    sr: float
    sim: float | None
    ri: float | None
    vr: float | None
    best_from: tuple[float, ...]
    novelty: tuple[float | None, ...]
    error_rate: tuple[float | None, ...]
    rescue_rate: tuple[float | None, ...]
    counts: dict


def _percent(part: float, whole: int) -> float | None:
    """part as a percent of whole, or None when whole is 0."""
    return 100.0 * part / whole if whole else None


def compile_report(outcomes: list[SampleOutcome]) -> MetricReport:
    """Every metric in one pass over the outcomes.

    SIM and BestFrom are over successful samples and RI over successes with
    sim >= RI_SIM_FLOOR whose initial value was not zero; VR is over every
    generated candidate. Per step, the error rate is over candidates, the
    rescue rate over first attempts that failed, and novelty over passing
    candidates, a candidate being novel when its own trajectory had not
    generated that structure in an earlier step. Raises EmptyInputError
    for an empty list.
    """
    if not outcomes:
        raise EmptyInputError("no samples")
    steps = max(o.n_steps for o in outcomes)
    best, candidates, failing, passing, novel, first_failed, rescued = (
        [0] * steps for _ in range(7)
    )
    sims: list[float] = []
    ris: list[float] = []
    ri_zero_excluded = n_valid = 0
    for outcome in outcomes:
        if outcome.succeeded:
            sims.append(outcome.sim)
            best[outcome.best_step] += 1
            if outcome.sim >= RI_SIM_FLOOR:
                if outcome.ri is None:
                    ri_zero_excluded += 1
                else:
                    ris.append(outcome.ri)
        by_step: list[list[GeneratedCandidate]] = [[] for _ in range(outcome.n_steps)]
        for cand in outcome.generated:
            by_step[cand.step_index].append(cand)
        seen_before: set[str] = set()
        for step, step_cands in enumerate(by_step):
            for cand in step_cands:
                candidates[step] += 1
                n_valid += cand.valid
                failing[step] += not cand.passed
                if cand.passed:
                    passing[step] += 1
                    novel[step] += cand.canonical not in seen_before
            seen_before.update(c.canonical for c in step_cands if c.canonical is not None)
        for stat in outcome.action_stats:
            if stat.first_failed:
                first_failed[stat.step_index] += 1
                rescued[stat.step_index] += stat.rescued
    n_generated = sum(candidates)
    return MetricReport(
        sr=_percent(len(sims), len(outcomes)),
        sim=_percent(sum(sims), len(sims)),
        ri=_percent(sum(ris), len(ris)),
        vr=_percent(n_valid, n_generated),
        best_from=tuple(_percent(count, len(sims)) for count in best) if sims else (),
        novelty=tuple(map(_percent, novel, passing)),
        error_rate=tuple(map(_percent, failing, candidates)),
        rescue_rate=tuple(map(_percent, rescued, first_failed)),
        counts={
            "samples": len(outcomes),
            "succeeded": len(sims),
            "ri_eligible": len(ris),
            "ri_zero_initial_excluded": ri_zero_excluded,
            "generated": n_generated,
            "valid": n_valid,
            "steps": steps,
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
    lines = ["step,error_rate,rescue_rate,best_from,novelty"]
    best_from = report.best_from or (None,) * report.counts["steps"]
    series = zip(report.error_rate, report.rescue_rate, best_from, report.novelty)
    for step, cells in enumerate(series, start=1):
        lines.append(",".join([str(step), *("" if v is None else f"{v:.2f}" for v in cells)]))
    return "\n".join(lines) + "\n"
