"""Budget-gated tool planning and anchored multi-step campaign execution.

One campaign refines a single lead over T steps. Per step the engine plans
tool calls under the mode's budget (one call in online/retrieve, the whole
tool set in parallel), executes them, checks every candidate against the
original lead (validity, similarity threshold, strict property improvement),
and retries a fully-failed tool call once with its failures embedded in the
instruction. The step's winner seeds the next step; the campaign returns the
best passing candidate seen anywhere, always measured against the lead.

In retrieve mode the buffer is queried each step with the current molecule;
a hit at or above the threshold adopts that record's action template, which
is then consumed one action per step until a different record hits (cursor
reset) or the template runs out (planner takes over).

A campaign's results-file line (result_to_line) is the JSON form of its
CampaignResult: every field name is a key and nested dataclasses nest the
same way, so CampaignResult, StepRecord, AttemptRecord, CandidateCheck,
ChosenCandidate and BestSeen are the one definition of that layout.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from typing import Callable

from . import evaluate as ev
from . import tools as tl
from .buffer import StepOutcome, ToolAction, TrajectoryBuffer, TrajectoryRecord
from .fingerprint import Fingerprint, morgan_fp, tanimoto
from .molgraph import MolGraph, ParseError, canonical_form, parse_smiles, validate
from .seeds import derive_seed

log = logging.getLogger(__name__)

ONLINE = "online"
RETRIEVE = "retrieve"
PARALLEL = "parallel"
MODES = (ONLINE, RETRIEVE, PARALLEL)

# Exponential weight for past action outcomes in the rule-based planner.
HISTORY_WEIGHT = 0.7


class ConfigError(ValueError):
    """Inconsistent run configuration or malformed configuration file."""


class PlannerProtocolError(ValueError):
    """External planner reply was unparseable or named unknown tools."""


@dataclass(frozen=True)
class RunConfig:
    mode: str
    tool_set: tuple[tl.ToolSpec, ...]
    property_spec: ev.PropertySpec
    steps: int = 3
    tau: float = 0.5
    seed: int = 0
    buffer: TrajectoryBuffer | None = None
    planner: Callable[[dict], str] | None = None  # external planner transport
    retry: bool = True
    run_id: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.tool_set:
            raise ConfigError("tool set must not be empty")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        # A NaN threshold would pass every candidate: sim < nan is always false.
        if not isinstance(self.tau, (int, float)) or not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be a finite number in [0, 1], got {self.tau!r}")
        if self.mode == RETRIEVE and self.buffer is None:
            raise ConfigError("retrieve mode requires a trajectory buffer")

    @property
    def budget(self) -> int:
        """Planned tool calls per step: the whole tool set in parallel mode, else one."""
        return len(self.tool_set) if self.mode == PARALLEL else 1


@dataclass(frozen=True)
class CandidateCheck:
    """Outcome of the ordered checks for one generated candidate string."""

    smiles: str
    valid: bool
    canonical: str | None
    sim_to_lead: float | None
    value: float | None
    improvement_vs_lead: float | None
    failure_kind: str | None
    passed: bool


@dataclass(frozen=True)
class AttemptRecord:
    tool_id: str
    prompt_index: int
    retry: bool
    candidates: tuple[CandidateCheck, ...]

    @property
    def action(self) -> ToolAction:
        return ToolAction(self.tool_id, self.prompt_index)


@dataclass(frozen=True)
class ChosenCandidate:
    smiles: str  # canonical
    value: float
    sim: float
    improvement: float
    relative: float | None


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    start: str  # canonical SMILES of the step's starting molecule
    plan: tuple[ToolAction, ...]
    attempts: tuple[AttemptRecord, ...]
    chosen: ChosenCandidate | None
    rescued: bool


@dataclass(frozen=True)
class BestSeen:
    smiles: str
    value: float
    sim: float
    improvement: float
    relative_improvement: float | None
    step_index: int


@dataclass(frozen=True)
class CampaignResult:
    lead: str
    property_id: str
    mode: str
    seed: int
    run_id: str
    initial_value: float
    steps: tuple[StepRecord, ...]
    best_seen: BestSeen | None
    invocation_count: int


@dataclass
class CampaignState:
    """Mutable per-campaign cursor: current molecule plus template state."""

    molecule: MolGraph
    canonical: str  # canonical SMILES of molecule
    template: list[ToolAction] = field(default_factory=list)
    cursor: int = 0
    template_key: tuple | None = None
    history: list[tuple[str, bool]] = field(default_factory=list)


@dataclass(frozen=True)
class _LeadContext:
    """The campaign's lead, and the parse checks of its candidate strings.

    checked maps each candidate string to (mol, canonical, sim to the
    lead), or to None when it does not parse, so a campaign parses and
    fingerprints each string once. It lives here because sim depends on
    the lead.
    """

    canonical: str
    fingerprint: Fingerprint
    initial: ev.PropertyValue
    checked: dict[str, tuple[MolGraph, str, float] | None] = field(
        default_factory=dict, compare=False
    )


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _ewma_success_rate(outcomes: list[bool]) -> float | None:
    if not outcomes:
        return None
    weight = 1.0
    num = den = 0.0
    for succeeded in reversed(outcomes):
        num += weight * (1.0 if succeeded else 0.0)
        den += weight
        weight *= HISTORY_WEIGHT
    return num / den


def rule_based_plan(
    tool_set: tuple[tl.ToolSpec, ...],
    mode: str,
    step_index: int,
    history: list[tuple[str, bool]],
) -> tuple[ToolAction, ...]:
    """Deterministic fallback planner.

    Tools are scored by an exponentially weighted success rate over their
    past attempts in this campaign (unseen tools score an optimistic 1.0);
    ties are broken round-robin on the step index. The prompt template
    rotates with the step.
    """
    prompt_index = step_index % 6
    if mode == PARALLEL:
        return tuple(ToolAction(spec.tool_id, prompt_index) for spec in tool_set)
    per_tool: dict[str, list[bool]] = {spec.tool_id: [] for spec in tool_set}
    for tool_id, succeeded in history:
        if tool_id in per_tool:
            per_tool[tool_id].append(succeeded)
    n = len(tool_set)

    def sort_key(position: int) -> tuple:
        rate = _ewma_success_rate(per_tool[tool_set[position].tool_id])
        if rate is None:
            rate = 1.0
        return (-rate, (position - step_index) % n)

    best = min(range(n), key=sort_key)
    return (ToolAction(tool_set[best].tool_id, prompt_index),)


def _planner_context(
    config: RunConfig,
    mol: MolGraph,
    step_index: int,
    retrieval_hint: dict | None,
) -> dict:
    return {
        "role": "planner",
        "budget": config.budget,
        "mode": config.mode,
        "step_index": step_index,
        "input_smiles": canonical_form(mol),
        "target_property": config.property_spec.id,
        "direction": config.property_spec.direction,
        "retrieval_hint": retrieval_hint,
        "tools": [
            {"tool_id": spec.tool_id, "description": spec.description}
            for spec in config.tool_set
        ],
        "prompt_templates": {
            spec.tool_id: list(spec.prompt_templates) for spec in config.tool_set
        },
        "reply_schema": '{"tool_calls": [{"tool_name": "<string>", "prompt_index": 0}]}',
    }


def _parse_planner_reply(reply: str, config: RunConfig) -> tuple[ToolAction, ...]:
    try:
        document = json.loads(reply)
    except (TypeError, json.JSONDecodeError, RecursionError) as exc:
        raise PlannerProtocolError(f"reply is not a JSON document: {exc}") from exc
    if not isinstance(document, dict) or "tool_calls" not in document:
        raise PlannerProtocolError("reply lacks a tool_calls list")
    calls = document["tool_calls"]
    if not isinstance(calls, list) or not calls:
        raise PlannerProtocolError("tool_calls must be a non-empty list")
    known = {spec.tool_id for spec in config.tool_set}
    actions = []
    for call in calls:
        if not isinstance(call, dict):
            raise PlannerProtocolError("tool call entries must be objects")
        name = call.get("tool_name")
        index = call.get("prompt_index")
        if not isinstance(name, str) or name not in known:
            raise PlannerProtocolError(f"unknown tool {name!r}")
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index <= 5:
            raise PlannerProtocolError(f"bad prompt_index {index!r}")
        actions.append(ToolAction(name, index))
    if config.mode == PARALLEL:
        if {a.tool_id for a in actions} != known or len(actions) != len(known):
            raise PlannerProtocolError("parallel plan must cover every tool exactly once")
        return tuple(actions)
    # Online/retrieve replies are ordered sequences; this step consumes the
    # first call.
    return (actions[0],)


def plan(
    config: RunConfig,
    mol: MolGraph,
    step_index: int,
    history: list[tuple[str, bool]],
    retrieval_hint: dict | None = None,
) -> tuple[ToolAction, ...]:
    """One step's tool calls, from the external planner or the builtin rules."""
    if config.planner is not None:
        context = _planner_context(config, mol, step_index, retrieval_hint)
        try:
            reply = config.planner(context)
            return _parse_planner_reply(reply, config)
        except PlannerProtocolError as exc:
            log.warning("planner protocol error (%s); using rule-based fallback", exc)
        except Exception as exc:
            log.warning("planner transport failed (%s); using rule-based fallback", exc)
    return rule_based_plan(config.tool_set, config.mode, step_index, history)


# ---------------------------------------------------------------------------
# Step execution
# ---------------------------------------------------------------------------


def _check_candidates(
    smiles_list: list[str], config: RunConfig, lead: _LeadContext
) -> list[CandidateCheck]:
    """Ordered checks per candidate: parse/validate, similarity to lead, improvement
    (the lead itself, in any spelling, is no improvement).

    Every valid candidate is scored in one evaluate_batch call, so an
    external evaluator gets one request for the whole list, repeated
    strings included. Parsing, canonical form and similarity are looked up
    in lead.checked.
    """
    parsed = []
    for smiles in smiles_list:
        if smiles not in lead.checked:
            try:
                mol = parse_smiles(smiles)
            except ParseError:
                lead.checked[smiles] = None
            else:
                sim = tanimoto(morgan_fp(mol), lead.fingerprint)
                lead.checked[smiles] = (mol, canonical_form(mol), sim)
        parsed.append(lead.checked[smiles])
    outcomes = iter(
        ev.evaluate_batch(config.property_spec, [entry[0] for entry in parsed if entry is not None])
    )
    checks = []
    for smiles, entry in zip(smiles_list, parsed):
        if entry is None:
            checks.append(
                CandidateCheck(smiles, False, None, None, None, None, tl.INVALID_STRUCTURE, False)
            )
            continue
        _, canonical, sim = entry
        failure = tl.SIMILARITY_VIOLATION if sim < config.tau else None
        value = improvement = None
        outcome = next(outcomes)
        if isinstance(outcome, ev.EvaluatorUnavailableError):
            if failure is None:
                failure = tl.EVALUATOR_ERROR
        else:
            value = outcome.value
            gain = ev.relative_improvement(config.property_spec, lead.initial, outcome)
            improvement = gain.absolute
            # The lead respelled is no improvement, whatever its value's last bits.
            if failure is None and (not gain.improved or canonical == lead.canonical):
                failure = tl.NO_IMPROVEMENT
        checks.append(
            CandidateCheck(
                smiles=smiles,
                valid=True,
                canonical=canonical,
                sim_to_lead=sim,
                value=value,
                improvement_vs_lead=improvement,
                failure_kind=failure,
                passed=failure is None,
            )
        )
    return checks


def _failed_cases(checks: tuple[CandidateCheck, ...]) -> list[tl.FailedCase]:
    """Most recent first, for embedding in a retry instruction."""
    cases = []
    for check in reversed(checks):
        detail = ""
        if check.failure_kind == tl.SIMILARITY_VIOLATION and check.sim_to_lead is not None:
            detail = f"similarity {check.sim_to_lead:.2f} below threshold"
        cases.append(tl.FailedCase(check.smiles, check.failure_kind or "", detail))
    return cases


def _spec_by_id(config: RunConfig) -> dict[str, tl.ToolSpec]:
    return {spec.tool_id: spec for spec in config.tool_set}


def _propose(
    config: RunConfig,
    mol: MolGraph,
    action: ToolAction,
    step_index: int,
    retry: bool,
    failed: list[tl.FailedCase],
) -> list[str]:
    """One tool invocation's candidate strings; none when the tool is unavailable."""
    spec = _spec_by_id(config)[action.tool_id]
    instruction = tl.build_instruction(
        spec, action.prompt_index, config.property_spec, failed
    )
    seed = derive_seed(
        config.seed, step_index, action.tool_id, action.prompt_index, int(retry)
    )
    try:
        return tl.invoke(spec, instruction, mol, seed)
    except tl.ToolUnavailableError as exc:
        log.warning("tool %s unavailable: %s", action.tool_id, exc)
        return []


def _run_phase(
    config: RunConfig,
    lead: _LeadContext,
    mol: MolGraph,
    calls: list[tuple[ToolAction, list[tl.FailedCase]]],
    step_index: int,
    retry: bool,
) -> list[AttemptRecord]:
    """Invoke every (action, failed cases) call, then check all candidates together."""
    proposals = [
        _propose(config, mol, action, step_index, retry, failed) for action, failed in calls
    ]
    checks = iter(
        _check_candidates([smiles for batch in proposals for smiles in batch], config, lead)
    )
    return [
        AttemptRecord(
            action.tool_id, action.prompt_index, retry, tuple(islice(checks, len(batch)))
        )
        for (action, _), batch in zip(calls, proposals)
    ]


def _passed(attempt: AttemptRecord) -> bool:
    return any(check.passed for check in attempt.candidates)


def run_step(
    config: RunConfig,
    state: CampaignState,
    lead: _LeadContext,
    step_index: int,
) -> StepRecord:
    """Plan and execute one exploration step, updating the state in place."""
    start = state.canonical
    retrieval_hint = None
    if config.mode == RETRIEVE:
        hit = config.buffer.top1_similar(state.molecule, config.property_spec.id)
        if hit is not None:
            record, sim = hit
            if sim >= config.tau:
                key = record.key()
                if key != state.template_key:
                    # Adopt the new template from its first action; the same
                    # record re-hitting keeps the cursor where it is.
                    known = {spec.tool_id for spec in config.tool_set}
                    actions = [a for a in record.actions if a.tool_id in known]
                    for action in record.actions:
                        if action.tool_id not in known:
                            log.warning(
                                "skipping unknown tool %r from retrieved trajectory",
                                action.tool_id,
                            )
                    if actions:
                        state.template = actions
                        state.cursor = 0
                        state.template_key = key
                retrieval_hint = {
                    "lead": record.lead,
                    "similarity": sim,
                    "actions": [
                        {"tool_name": a.tool_id, "prompt_index": a.prompt_index}
                        for a in record.actions
                    ],
                }

    if config.mode == RETRIEVE and state.cursor < len(state.template):
        calls = (state.template[state.cursor],)
        state.cursor += 1
    else:
        calls = plan(config, state.molecule, step_index, state.history, retrieval_hint)

    # Two phases, each checked with one evaluator request: every planned
    # call, then the retries of those that produced no passing candidate.
    firsts = _run_phase(
        config, lead, state.molecule, [(a, []) for a in calls], step_index, False
    )
    failed = [a for a in firsts if not _passed(a)] if config.retry else []
    retries = iter(
        _run_phase(
            config,
            lead,
            state.molecule,
            [(a.action, _failed_cases(a.candidates)) for a in failed],
            step_index,
            True,
        )
    )

    attempts: list[AttemptRecord] = []
    rescued = False
    action_outcomes: list[tuple[str, bool]] = []
    for attempt in firsts:
        attempts.append(attempt)
        succeeded = _passed(attempt)
        if not succeeded and config.retry:
            retry_attempt = next(retries)
            attempts.append(retry_attempt)
            if _passed(retry_attempt):
                rescued = True
                succeeded = True
        action_outcomes.append((attempt.action.tool_id, succeeded))
    state.history.extend(action_outcomes)

    passing = [
        check
        for attempt in attempts
        for check in attempt.candidates
        if check.passed
    ]
    chosen = None
    if passing:
        top = min(passing, key=lambda c: (-c.improvement_vs_lead, c.canonical))
        gain = ev.relative_improvement(
            config.property_spec,
            lead.initial,
            ev.PropertyValue(top.value, config.property_spec.id),
        )
        chosen = ChosenCandidate(
            smiles=top.canonical,
            value=top.value,
            sim=top.sim_to_lead,
            improvement=top.improvement_vs_lead,
            relative=gain.relative,
        )
        # Canonical forms are idempotent, so the re-parsed winner needs no
        # second canonicalization.
        state.molecule = parse_smiles(top.canonical)
        state.canonical = top.canonical

    return StepRecord(
        step_index=step_index,
        start=start,
        plan=calls,
        attempts=tuple(attempts),
        chosen=chosen,
        rescued=rescued,
    )


def run_campaign(config: RunConfig, lead_mol: MolGraph) -> CampaignResult:
    """Run the full T-step campaign for one lead molecule."""
    report = validate(lead_mol)
    if not report.valid:
        raise ConfigError(f"lead molecule invalid: {report.violations[0][2]}")
    lead = _LeadContext(
        canonical=canonical_form(lead_mol),
        fingerprint=morgan_fp(lead_mol),
        initial=ev.evaluate(config.property_spec, lead_mol),
    )
    # Tool calls memoize edit options on the molecule they edit. The
    # campaign edits a copy with its own memo, which starts from the
    # records above, so the options go with the campaign and are not kept
    # by the caller's molecule.
    state = CampaignState(
        molecule=replace(lead_mol, _cache=dict(lead_mol._cache)), canonical=lead.canonical
    )
    steps: list[StepRecord] = []
    for step_index in range(config.steps):
        steps.append(run_step(config, state, lead, step_index))

    best: BestSeen | None = None
    for record in steps:
        if record.chosen is None:
            continue
        if best is None or record.chosen.improvement > best.improvement:
            best = BestSeen(
                smiles=record.chosen.smiles,
                value=record.chosen.value,
                sim=record.chosen.sim,
                improvement=record.chosen.improvement,
                relative_improvement=record.chosen.relative,
                step_index=record.step_index,
            )
    return CampaignResult(
        lead=lead.canonical,
        property_id=config.property_spec.id,
        mode=config.mode,
        seed=config.seed,
        run_id=config.run_id,
        initial_value=lead.initial.value,
        steps=tuple(steps),
        best_seen=best,
        invocation_count=sum(len(record.attempts) for record in steps),
    )


# ---------------------------------------------------------------------------
# Buffer building
# ---------------------------------------------------------------------------


def _winning_action(record: StepRecord) -> ToolAction:
    """The tool-action that produced the step's chosen candidate.

    Stagnant steps fall back to the attempt whose best candidate came
    closest (largest improvement, then lexicographic canonical form), and
    finally to the first planned attempt.
    """
    if record.chosen is not None:
        for attempt in record.attempts:
            for check in attempt.candidates:
                if check.passed and check.canonical == record.chosen.smiles:
                    return attempt.action
    scored = []
    for position, attempt in enumerate(record.attempts):
        for check in attempt.candidates:
            if check.improvement_vs_lead is not None:
                scored.append(
                    (-check.improvement_vs_lead, check.canonical or "", position)
                )
    if scored:
        return record.attempts[min(scored)[2]].action
    return record.attempts[0].action if record.attempts else record.plan[0]


def trajectory_from_campaign(result: CampaignResult) -> TrajectoryRecord | None:
    """Distill a successful campaign into a reusable trajectory record.

    The per-step action is the winner of that step; step outcomes track the
    molecule state the trajectory actually walked through (unchanged on
    stagnant steps). Unsuccessful campaigns, and successes whose relative
    improvement is undefined (zero initial value), yield None.
    """
    if result.best_seen is None or result.best_seen.relative_improvement is None:
        return None
    lead_mol = parse_smiles(result.lead)
    actions = []
    outcomes = []
    current = (result.lead, result.initial_value, 1.0)
    for record in result.steps:
        actions.append(_winning_action(record))
        if record.chosen is not None:
            current = (record.chosen.smiles, record.chosen.value, record.chosen.sim)
        outcomes.append(StepOutcome(*current))
    return TrajectoryRecord(
        lead=result.lead,
        lead_fp=morgan_fp(lead_mol),
        property_id=result.property_id,
        actions=tuple(actions),
        step_outcomes=tuple(outcomes),
        final_relative_improvement=result.best_seen.relative_improvement,
        run_id=result.run_id,
    )


# ---------------------------------------------------------------------------
# Serialization (one JSON record per campaign)
# ---------------------------------------------------------------------------


def result_to_line(result: CampaignResult) -> str:
    """One results-file line: the dataclass fields are the keys, nested as they are."""
    return json.dumps(asdict(result), sort_keys=True)
