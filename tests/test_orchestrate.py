import json

import pytest

from leadopt import evaluate as ev
from leadopt import orchestrate as orc
from leadopt import tools as tl
from leadopt.buffer import StepOutcome, ToolAction, TrajectoryBuffer, TrajectoryRecord
from leadopt.fingerprint import morgan_fp, tanimoto
from leadopt.molgraph import canonical_form, parse_smiles

from _molbuild import lead_pool

TOOLSET = tl.builtin_toolset()
PLOGP = ev.builtin_property("plogp")
LEAD = parse_smiles("CC(C)Cc1ccc(C(C)C(=O)NCCCOc2ccc(Cl)cc2)cc1")


def config_for(mode, **kwargs):
    defaults = dict(
        mode=mode,
        tool_set=TOOLSET,
        property_spec=PLOGP,
        seed=17,
        run_id="test",
    )
    defaults.update(kwargs)
    return orc.RunConfig(**defaults)


# -- configuration -----------------------------------------------------------


def test_budget_derived_from_mode():
    assert config_for("online").budget == 1
    assert config_for("retrieve", buffer=TrajectoryBuffer()).budget == 1
    assert config_for("parallel").budget == len(TOOLSET)


def test_retrieve_requires_buffer():
    with pytest.raises(orc.ConfigError):
        config_for("retrieve")


def test_unknown_mode_rejected():
    with pytest.raises(orc.ConfigError):
        config_for("offline")


# -- planning ----------------------------------------------------------------


def test_cold_start_round_robin_position_zero():
    command = orc.rule_based_plan(TOOLSET, "online", 0, [])
    assert len(command.tool_calls) == 1
    assert command.tool_calls[0] == ToolAction(TOOLSET[0].tool_id, 0)


def test_round_robin_advances_with_step():
    command = orc.rule_based_plan(TOOLSET, "online", 1, [])
    assert command.tool_calls[0].tool_id == TOOLSET[1].tool_id
    assert command.tool_calls[0].prompt_index == 1


def test_parallel_plan_covers_all_tools():
    command = orc.rule_based_plan(TOOLSET, "parallel", 0, [])
    assert {a.tool_id for a in command.tool_calls} == {s.tool_id for s in TOOLSET}
    assert len(command.tool_calls) == len(TOOLSET)


def test_history_down_weights_failing_tool():
    history = [("swap", False), ("swap", False), ("mutate", True)]
    command = orc.rule_based_plan(TOOLSET, "online", 3, history)
    assert command.tool_calls[0].tool_id != "swap"


def test_recent_outcomes_weigh_more():
    # Old failure followed by recent success should outrank the reverse.
    good_now = orc._ewma_success_rate([False, True])
    bad_now = orc._ewma_success_rate([True, False])
    assert good_now > bad_now
    assert orc._ewma_success_rate([]) is None


def test_template_index_rotates():
    for step in range(8):
        command = orc.rule_based_plan(TOOLSET, "online", step, [])
        assert command.tool_calls[0].prompt_index == step % 6


def test_external_planner_used_when_valid():
    def planner(context):
        assert context["target_property"] == "plogp"
        assert context["budget"] == 1
        return json.dumps({"tool_calls": [{"tool_name": "ring", "prompt_index": 3}]})

    config = config_for("online", planner=planner)
    command = orc.plan(config, LEAD, 0, [])
    assert command.tool_calls == (ToolAction("ring", 3),)


def test_external_planner_ordered_sequence_takes_first():
    def planner(context):
        return json.dumps(
            {
                "tool_calls": [
                    {"tool_name": "mutate", "prompt_index": 1},
                    {"tool_name": "swap", "prompt_index": 0},
                ]
            }
        )

    command = orc.plan(config_for("online", planner=planner), LEAD, 0, [])
    assert command.tool_calls == (ToolAction("mutate", 1),)


@pytest.mark.parametrize(
    "reply",
    [
        "not json",
        json.dumps({"tool_calls": []}),
        json.dumps({"tool_calls": [{"tool_name": "nope", "prompt_index": 0}]}),
        json.dumps({"tool_calls": [{"tool_name": "swap", "prompt_index": 9}]}),
        json.dumps({"plan": "free-form"}),
        json.dumps({"tool_calls": [{"tool_name": "swap"}]}),
    ],
)
def test_external_planner_fallback_on_bad_reply(reply):
    config = config_for("online", planner=lambda context: reply)
    command = orc.plan(config, LEAD, 0, [])
    assert command.tool_calls == (ToolAction(TOOLSET[0].tool_id, 0),)


def test_external_planner_parallel_must_cover_all():
    def planner(context):
        return json.dumps({"tool_calls": [{"tool_name": "swap", "prompt_index": 0}]})

    config = config_for("parallel", planner=planner)
    command = orc.plan(config, LEAD, 0, [])
    assert len(command.tool_calls) == len(TOOLSET)  # fallback covered all


def test_planner_transport_crash_falls_back():
    def planner(context):
        raise TimeoutError("llm offline")

    command = orc.plan(config_for("online", planner=planner), LEAD, 0, [])
    assert command.tool_calls == (ToolAction(TOOLSET[0].tool_id, 0),)


# -- campaigns ---------------------------------------------------------------


def test_online_campaign_shape():
    config = config_for("online", steps=3)
    result = orc.run_campaign(config, LEAD)
    assert result.lead == canonical_form(LEAD)
    assert len(result.steps) == 3
    assert all(len(step.plan.tool_calls) == 1 for step in result.steps)
    assert orc.invocation_budget_check(result, config)


def test_parallel_campaign_budget():
    config = config_for("parallel", steps=3)
    result = orc.run_campaign(config, LEAD)
    planned = sum(
        1 for step in result.steps for attempt in step.attempts if not attempt.retry
    )
    assert planned == 3 * len(TOOLSET)
    assert orc.invocation_budget_check(result, config)


def test_retry_cap_one_per_action():
    flaky_only = (tl.with_flaky_probability(TOOLSET[3], 0.9),)
    config = orc.RunConfig(
        mode="online", tool_set=flaky_only, property_spec=PLOGP, seed=3, steps=4
    )
    result = orc.run_campaign(config, LEAD)
    for step in result.steps:
        by_action = {}
        for attempt in step.attempts:
            by_action.setdefault(attempt.action, []).append(attempt.retry)
        for flags in by_action.values():
            assert len(flags) <= 2
            assert flags.count(True) <= 1
    assert orc.invocation_budget_check(result, config)


def test_rescue_flag_set_when_retry_passes():
    flaky_only = (tl.with_flaky_probability(TOOLSET[3], 0.95),)
    rescued = 0
    for seed in range(30):
        config = orc.RunConfig(
            mode="online", tool_set=flaky_only, property_spec=PLOGP, seed=seed, steps=2
        )
        result = orc.run_campaign(config, LEAD)
        for step in result.steps:
            if step.rescued:
                rescued += 1
                first = [a for a in step.attempts if not a.retry]
                retries = [a for a in step.attempts if a.retry]
                assert retries and first
                assert not any(c.passed for a in first for c in a.candidates)
                assert any(c.passed for a in retries for c in a.candidates)
    assert rescued > 0


def test_retry_disabled_never_retries():
    flaky_only = (tl.with_flaky_probability(TOOLSET[3], 0.95),)
    config = orc.RunConfig(
        mode="online",
        tool_set=flaky_only,
        property_spec=PLOGP,
        seed=3,
        steps=4,
        retry=False,
    )
    result = orc.run_campaign(config, LEAD)
    assert all(not attempt.retry for step in result.steps for attempt in step.attempts)


def test_chosen_is_argmax_of_passing():
    config = config_for("parallel", steps=2)
    result = orc.run_campaign(config, LEAD)
    for step in result.steps:
        passing = [
            check
            for attempt in step.attempts
            for check in attempt.candidates
            if check.passed
        ]
        if step.chosen is None:
            assert not passing
            continue
        best = max(passing, key=lambda c: c.improvement_vs_lead)
        assert step.chosen.improvement == best.improvement_vs_lead


def test_selection_tie_breaks_lexicographically():
    # An external tool proposes two same-multiset (hence equally scored)
    # extensions of the lead; the chosen one must be the lexicographically
    # smaller canonical form.
    lead = parse_smiles("CCCCCCCCCCO")
    tied = ["CC(C)CCCCCCCCO", "CCC(C)CCCCCCCO"]  # same multiset, same value

    def transport(request):
        return "".join(f"<SMILES>{smiles}</SMILES>" for smiles in tied)

    tool = tl.ToolSpec("twin", "two tied picks", tl.default_templates("any"), tl.ExternalTool(transport))
    config = orc.RunConfig(
        mode="online", tool_set=(tool,), property_spec=PLOGP, seed=0, steps=1, tau=0.4
    )
    result = orc.run_campaign(config, lead)
    step = result.steps[0]
    passing = [c for a in step.attempts for c in a.candidates if c.passed]
    assert len(passing) == 2
    assert passing[0].improvement_vs_lead == passing[1].improvement_vs_lead
    assert step.chosen.smiles == min(c.canonical for c in passing)


def test_stagnant_step_keeps_molecule():
    # tau = 1.0 makes every modified candidate fail the similarity check.
    config = config_for("online", tau=1.0, steps=2)
    result = orc.run_campaign(config, LEAD)
    assert result.best_seen is None
    assert all(step.chosen is None for step in result.steps)
    assert all(step.start == result.lead for step in result.steps)


def test_anchoring_on_random_leads():
    leads = lead_pool(401, 12)
    for index, lead in enumerate(leads):
        config = config_for("parallel", seed=500 + index, steps=3)
        result = orc.run_campaign(config, lead)
        lead_fp = morgan_fp(lead)
        initial = ev.evaluate(PLOGP, lead).value
        if result.best_seen is not None:
            candidate = parse_smiles(result.best_seen.smiles)
            assert tanimoto(morgan_fp(candidate), lead_fp) >= config.tau
            assert ev.evaluate(PLOGP, candidate).value > initial
        for step in result.steps:
            if step.chosen is not None:
                mol = parse_smiles(step.chosen.smiles)
                assert tanimoto(morgan_fp(mol), lead_fp) >= config.tau
                assert ev.evaluate(PLOGP, mol).value > initial


def test_best_seen_dominates_steps():
    config = config_for("parallel", steps=3, seed=9)
    result = orc.run_campaign(config, LEAD)
    if result.best_seen is not None:
        for step in result.steps:
            if step.chosen is not None:
                assert result.best_seen.improvement >= step.chosen.improvement


def test_best_seen_tie_goes_to_earliest_step():
    config = config_for("parallel", steps=3, seed=9)
    result = orc.run_campaign(config, LEAD)
    if result.best_seen is not None:
        earlier = [
            step.step_index
            for step in result.steps
            if step.chosen is not None
            and step.chosen.improvement >= result.best_seen.improvement
        ]
        assert result.best_seen.step_index == min(earlier)


def test_campaign_determinism():
    config = config_for("parallel", steps=3, seed=123)
    first = orc.run_campaign(config, LEAD)
    second = orc.run_campaign(config, LEAD)
    assert orc.result_to_line(first) == orc.result_to_line(second)


def test_malformed_evaluator_reply_fails_only_that_candidate():
    requests = []

    def transport(request):
        requests.append(request)
        if len(requests) == 2:  # the first candidate; the lead's request comes first
            return {"values": ["abc"]}
        return {"values": [float(len(request["smiles_list"][0]))], "errors": []}

    spec = ev.PropertySpec("size", ev.MAXIMIZE, ev.ExternalEvaluator("size", transport))
    result = orc.run_campaign(config_for("online", property_spec=spec, tau=0.0, steps=2), LEAD)
    kinds = [
        check.failure_kind
        for step in result.steps
        for attempt in step.attempts
        for check in attempt.candidates
    ]
    assert len(kinds) > 1
    assert kinds.count(tl.EVALUATOR_ERROR) == 1
    assert json.loads(orc.result_to_line(result))["lead"] == canonical_form(LEAD)


def test_invalid_lead_rejected():
    from leadopt.molgraph import Atom, MolGraph

    with pytest.raises(orc.ConfigError):
        orc.run_campaign(config_for("online"), MolGraph((Atom("C"), Atom("C")), ()))


# -- retrieve mode -----------------------------------------------------------


def buffer_with_template(lead, actions, ri=0.8, run_id="train-0"):
    buffer = TrajectoryBuffer()
    canon = canonical_form(lead)
    buffer.insert(
        TrajectoryRecord(
            lead=canon,
            lead_fp=morgan_fp(lead),
            property_id="plogp",
            actions=tuple(actions),
            step_outcomes=tuple(StepOutcome(canon, 0.0, 1.0) for _ in actions),
            final_relative_improvement=ri,
            run_id=run_id,
        )
    )
    return buffer


def test_retrieve_follows_template_on_hit():
    template = [ToolAction("mutate", 5), ToolAction("swap", 4), ToolAction("ring", 2)]
    buffer = buffer_with_template(LEAD, template)
    config = config_for("retrieve", buffer=buffer, steps=3)
    result = orc.run_campaign(config, LEAD)  # identical lead: similarity 1.0
    executed = [step.plan.tool_calls[0] for step in result.steps]
    assert executed == template


def test_retrieve_falls_back_to_planner_without_hit():
    faraway = parse_smiles("OCC(O)CO")
    buffer = buffer_with_template(faraway, [ToolAction("ring", 2)])
    config = config_for("retrieve", buffer=buffer, steps=2)
    result = orc.run_campaign(config, LEAD)
    # No hit above tau: the rule-based planner provides one call per step.
    assert result.steps[0].plan.tool_calls[0].prompt_index == 0
    assert orc.invocation_budget_check(result, config)


def test_retrieve_template_exhaustion_hands_over_to_planner():
    template = [ToolAction("mutate", 5)]
    buffer = buffer_with_template(LEAD, template)
    config = config_for("retrieve", buffer=buffer, steps=3)
    result = orc.run_campaign(config, LEAD)
    assert result.steps[0].plan.tool_calls[0] == template[0]
    # Later steps re-retrieve the same record (cursor not reset) and, with
    # the template consumed, plan fresh.
    for step in result.steps[1:]:
        assert len(step.plan.tool_calls) == 1


def test_retrieve_skips_unknown_tools_in_template():
    template = [ToolAction("vanished", 1), ToolAction("swap", 4)]
    buffer = buffer_with_template(LEAD, template)
    config = config_for("retrieve", buffer=buffer, steps=2)
    result = orc.run_campaign(config, LEAD)
    assert result.steps[0].plan.tool_calls[0] == ToolAction("swap", 4)


def test_retrieve_budget_is_single_call_per_step():
    template = [ToolAction("swap", 0), ToolAction("swap", 1), ToolAction("swap", 2)]
    buffer = buffer_with_template(LEAD, template)
    config = config_for("retrieve", buffer=buffer, steps=3)
    result = orc.run_campaign(config, LEAD)
    assert orc.invocation_budget_check(result, config)
    planned = sum(
        1 for step in result.steps for attempt in step.attempts if not attempt.retry
    )
    assert planned == 3


# -- serialization and trajectory extraction ---------------------------------


def test_result_record_round_trip_fields():
    config = config_for("parallel", steps=2, seed=31)
    result = orc.run_campaign(config, LEAD)
    record = orc.result_to_record(result)
    assert record["lead"] == result.lead
    assert record["mode"] == "parallel"
    assert len(record["steps"]) == 2
    text = orc.result_to_line(result)
    assert json.loads(text) == record


def test_trajectory_extraction_matches_steps():
    config = config_for("parallel", steps=3, seed=77)
    result = orc.run_campaign(config, LEAD)
    record = orc.trajectory_from_campaign(result, config)
    if result.best_seen is None:
        assert record is None
        return
    assert record is not None
    assert len(record.actions) == config.steps
    assert len(record.step_outcomes) == config.steps
    assert record.lead == result.lead
    assert record.final_relative_improvement == result.best_seen.relative_improvement
    # Chosen steps must record the chosen action; stagnant steps carry the
    # previous state forward.
    state = result.lead
    for step, outcome in zip(result.steps, record.step_outcomes):
        if step.chosen is not None:
            state = step.chosen.smiles
        assert outcome.smiles == state


def test_unsuccessful_campaign_yields_no_trajectory():
    config = config_for("online", tau=1.0, steps=2)
    result = orc.run_campaign(config, LEAD)
    assert result.best_seen is None
    assert orc.trajectory_from_campaign(result, config) is None
