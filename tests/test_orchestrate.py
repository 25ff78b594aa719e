import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadopt import evaluate as ev
from leadopt import orchestrate as orc
from leadopt import tools as tl
from leadopt.buffer import StepOutcome, ToolAction, TrajectoryBuffer, TrajectoryRecord
from leadopt.fingerprint import morgan_fp, tanimoto
from leadopt.molgraph import canonical_form, parse_smiles, write_smiles

from _molbuild import lead_pool
from _oracles import invocation_budget_check, with_flaky_probability

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


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.1, 1.5, "0.5"])
def test_tau_outside_unit_interval_rejected(tau):
    with pytest.raises(orc.ConfigError, match="tau"):
        config_for("online", tau=tau)


# -- planning ----------------------------------------------------------------


def test_cold_start_round_robin_position_zero():
    calls = orc.rule_based_plan(TOOLSET, "online", 0, [])
    assert len(calls) == 1
    assert calls[0] == ToolAction(TOOLSET[0].tool_id, 0)


def test_round_robin_advances_with_step():
    calls = orc.rule_based_plan(TOOLSET, "online", 1, [])
    assert calls[0].tool_id == TOOLSET[1].tool_id
    assert calls[0].prompt_index == 1


def test_parallel_plan_covers_all_tools():
    calls = orc.rule_based_plan(TOOLSET, "parallel", 0, [])
    assert {a.tool_id for a in calls} == {s.tool_id for s in TOOLSET}
    assert len(calls) == len(TOOLSET)


def test_history_down_weights_failing_tool():
    history = [("swap", False), ("swap", False), ("mutate", True)]
    calls = orc.rule_based_plan(TOOLSET, "online", 3, history)
    assert calls[0].tool_id != "swap"


def test_recent_outcomes_weigh_more():
    # Old failure followed by recent success should outrank the reverse.
    good_now = orc._ewma_success_rate([False, True])
    bad_now = orc._ewma_success_rate([True, False])
    assert good_now > bad_now
    assert orc._ewma_success_rate([]) is None


def test_template_index_rotates():
    for step in range(8):
        calls = orc.rule_based_plan(TOOLSET, "online", step, [])
        assert calls[0].prompt_index == step % 6


def test_external_planner_used_when_valid():
    def planner(context):
        assert context["target_property"] == "plogp"
        assert context["budget"] == 1
        return json.dumps({"tool_calls": [{"tool_name": "ring", "prompt_index": 3}]})

    config = config_for("online", planner=planner)
    calls = orc.plan(config, LEAD, 0, [])
    assert calls == (ToolAction("ring", 3),)


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

    calls = orc.plan(config_for("online", planner=planner), LEAD, 0, [])
    assert calls == (ToolAction("mutate", 1),)


@pytest.mark.parametrize(
    "reply",
    [
        "not json",
        json.dumps({"tool_calls": []}),
        json.dumps({"tool_calls": [{"tool_name": "nope", "prompt_index": 0}]}),
        json.dumps({"tool_calls": [{"tool_name": "swap", "prompt_index": 9}]}),
        json.dumps({"plan": "free-form"}),
        json.dumps({"tool_calls": [{"tool_name": "swap"}]}),
        json.dumps({"tool_calls": [{"tool_name": "mutate", "prompt_index": True}]}),
        json.dumps({"tool_calls": [{"tool_name": ["mutate"], "prompt_index": 1}]}),
        pytest.param("[" * 100_000, id="nested-deeper-than-the-decoder-recurses"),
    ],
)
def test_external_planner_fallback_on_bad_reply(reply):
    config = config_for("online", planner=lambda context: reply)
    calls = orc.plan(config, LEAD, 0, [])
    assert calls == (ToolAction(TOOLSET[0].tool_id, 0),)


@pytest.mark.parametrize("index", [True, False])
def test_boolean_prompt_index_is_a_protocol_error(index):
    # A bool is an int in Python; accepted, it was written to the results
    # line as true/false, which report refuses.
    reply = json.dumps({"tool_calls": [{"tool_name": "swap", "prompt_index": index}]})
    with pytest.raises(orc.PlannerProtocolError, match="prompt_index"):
        orc._parse_planner_reply(reply, config_for("online"))


def test_external_planner_parallel_must_cover_all():
    def planner(context):
        return json.dumps({"tool_calls": [{"tool_name": "swap", "prompt_index": 0}]})

    config = config_for("parallel", planner=planner)
    calls = orc.plan(config, LEAD, 0, [])
    assert len(calls) == len(TOOLSET)  # fallback covered all


def test_planner_transport_crash_falls_back():
    def planner(context):
        raise TimeoutError("llm offline")

    calls = orc.plan(config_for("online", planner=planner), LEAD, 0, [])
    assert calls == (ToolAction(TOOLSET[0].tool_id, 0),)


# -- campaigns ---------------------------------------------------------------


def test_online_campaign_shape():
    config = config_for("online", steps=3)
    result = orc.run_campaign(config, LEAD)
    assert result.lead == canonical_form(LEAD)
    assert len(result.steps) == 3
    assert all(len(step.plan) == 1 for step in result.steps)
    assert invocation_budget_check(result, config)


def test_parallel_campaign_budget():
    config = config_for("parallel", steps=3)
    result = orc.run_campaign(config, LEAD)
    planned = sum(
        1 for step in result.steps for attempt in step.attempts if not attempt.retry
    )
    assert planned == 3 * len(TOOLSET)
    assert invocation_budget_check(result, config)


def test_retry_cap_one_per_action():
    flaky_only = (with_flaky_probability(TOOLSET[3], 0.9),)
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
    assert invocation_budget_check(result, config)


def test_rescue_flag_set_when_retry_passes():
    flaky_only = (with_flaky_probability(TOOLSET[3], 0.95),)
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
    flaky_only = (with_flaky_probability(TOOLSET[3], 0.95),)
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


def test_the_lead_respelled_is_no_improvement():
    # The builtin plogp sums atom terms in index order, so this spelling of
    # the lead scores 1.8e-15 above the dataset's spelling.
    lead = parse_smiles("C(C)(SCC(C)F)(OCc(nccc1)c1-c(ccc(c2)-c(cncc3)c3)c2)C(C)C")
    respelled = "c(ccc(-c(cccn1)c1COC(SCC(F)C)(C)C(C)C)c2)(c2)-c(cccn3)c3"
    assert canonical_form(parse_smiles(respelled)) == canonical_form(lead)
    assert ev.evaluate(PLOGP, parse_smiles(respelled)).value > ev.evaluate(PLOGP, lead).value

    def transport(request):
        return f"<SMILES>{respelled}</SMILES>"

    tool = tl.ToolSpec("echo", "returns the lead", tl.default_templates("any"), tl.ExternalTool(transport))
    config = orc.RunConfig(mode="online", tool_set=(tool,), property_spec=PLOGP, seed=0, steps=1)
    result = orc.run_campaign(config, lead)
    checks = [c for a in result.steps[0].attempts for c in a.candidates]
    assert [(c.smiles, c.sim_to_lead, c.failure_kind) for c in checks] == [
        (respelled, 1.0, tl.NO_IMPROVEMENT)
    ] * len(checks)
    assert checks[0].improvement_vs_lead > 0
    assert result.best_seen is None


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


def test_a_campaign_leaves_no_edit_options_on_the_lead():
    # The campaign memoizes edit options on a copy of the lead, so the
    # caller's molecule keeps only the records computed from it directly.
    lead = parse_smiles(write_smiles(LEAD))
    reference = parse_smiles(write_smiles(LEAD))
    canonical_form(reference), morgan_fp(reference), ev.evaluate(PLOGP, reference)
    orc.run_campaign(config_for("parallel"), lead)
    assert lead._cache.keys() == reference._cache.keys()


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


def seeded_value(seed, smiles):
    """A value from the SMILES string, or None for a seeded tenth of strings."""
    digest = hashlib.sha256(f"{seed}/{smiles}".encode()).digest()
    return None if digest[0] < 26 else len(smiles) / 10 + digest[1] / 256


def seeded_transport(seed, requests):
    """Evaluator transport serving seeded_value, with an error entry for each None."""

    def transport(request):
        requests.append(list(request["smiles_list"]))
        values = [seeded_value(seed, smiles) for smiles in request["smiles_list"]]
        errors = [[index, "refused"] for index, value in enumerate(values) if value is None]
        return {"values": values, "errors": errors}

    return transport


def test_one_evaluator_request_per_step_phase():
    requests = []
    spec = ev.PropertySpec("size", ev.MAXIMIZE, ev.ExternalEvaluator("size", seeded_transport(3, requests)))
    result = orc.run_campaign(config_for("parallel", property_spec=spec, steps=3), LEAD)
    expected = [[write_smiles(LEAD)]]
    for step in result.steps:
        for retry in (False, True):
            phase = [
                write_smiles(parse_smiles(check.smiles))
                for attempt in step.attempts
                if attempt.retry == retry
                for check in attempt.candidates
                if check.valid
            ]
            if phase:
                expected.append(phase)
    assert requests == expected
    assert any(attempt.retry for step in result.steps for attempt in step.attempts)


def test_candidate_checks_are_memoized_per_campaign(monkeypatch):
    # A campaign parses and fingerprints each candidate string once, but
    # the evaluator still receives every valid candidate, repeats included.
    smiles_list = ["CCO", "C1CC", "OCC", "CCO", "C1CC", "Clc1ccccc1", "OCC", "CCO"]
    requests = []
    spec = ev.PropertySpec("size", ev.MAXIMIZE, ev.ExternalEvaluator("size", seeded_transport(5, requests)))
    config = config_for("online", property_spec=spec, tau=0.0)

    def context():
        return orc._LeadContext(canonical_form(LEAD), morgan_fp(LEAD), ev.PropertyValue(0.5, "size"))

    expected = [orc._check_candidates([smiles], config, context())[0] for smiles in smiles_list]
    assert [check.valid for check in expected] == [True, False, True, True, False, True, True, True]
    valid = [write_smiles(parse_smiles(s)) for s, check in zip(smiles_list, expected) if check.valid]
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse_smiles(text)

    monkeypatch.setattr(orc, "parse_smiles", counting_parse)
    requests.clear()
    lead = context()
    assert orc._check_candidates(smiles_list, config, lead) == expected
    assert sorted(parsed) == sorted(set(smiles_list))
    parsed.clear()
    assert orc._check_candidates(smiles_list, config, lead) == expected
    assert parsed == []
    assert requests == [valid, valid]


class OneSmilesPerRequest:
    """Evaluator sending each SMILES of a batch in its own request."""

    def __init__(self, evaluator):
        self.evaluator = evaluator

    def __call__(self, smiles_list):
        outcomes = []
        for smiles in smiles_list:
            try:
                outcomes += self.evaluator([smiles])
            except ev.EvaluatorUnavailableError as exc:
                outcomes.append(str(exc))
        failed = [outcome for outcome in outcomes if isinstance(outcome, str)]
        if failed:
            raise ev.EvaluatorUnavailableError(failed[0], outcomes)
        return outcomes


@settings(max_examples=20)
@given(
    lead=st.sampled_from(lead_pool(909, 6)),
    mode=st.sampled_from(("online", "parallel")),
    seed=st.integers(0, 2**16),
    tau=st.sampled_from((0.3, 0.5)),
)
def test_one_smiles_requests_give_identical_results(lead, mode, seed, tau):
    def result_line(evaluator):
        spec = ev.PropertySpec("size", ev.MAXIMIZE, evaluator)
        config = config_for(mode, property_spec=spec, seed=seed, tau=tau)
        try:
            return orc.result_to_line(orc.run_campaign(config, lead))
        except ev.EvaluatorUnavailableError as exc:  # the lead itself was refused
            return str(exc)

    batched, single = [], []
    line = result_line(ev.ExternalEvaluator("size", seeded_transport(seed, batched)))
    assert line == result_line(
        OneSmilesPerRequest(ev.ExternalEvaluator("size", seeded_transport(seed, single)))
    )
    assert all(len(request) == 1 for request in single)
    assert len(batched) <= 1 + 2 * 3
    if line.startswith("{"):
        # A refused sample fails its own candidate only; every other one keeps its value.
        for step in json.loads(line)["steps"]:
            for attempt in step["attempts"]:
                for check in attempt["candidates"]:
                    if check["valid"]:
                        expected = seeded_value(seed, write_smiles(parse_smiles(check["smiles"])))
                        assert check["value"] == expected
                        if expected is None:
                            assert check["failure_kind"] in (tl.EVALUATOR_ERROR, tl.SIMILARITY_VIOLATION)


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
    executed = [step.plan[0] for step in result.steps]
    assert executed == template


def test_retrieve_falls_back_to_planner_without_hit():
    faraway = parse_smiles("OCC(O)CO")
    buffer = buffer_with_template(faraway, [ToolAction("ring", 2)])
    config = config_for("retrieve", buffer=buffer, steps=2)
    result = orc.run_campaign(config, LEAD)
    # No hit above tau: the rule-based planner provides one call per step.
    assert result.steps[0].plan[0].prompt_index == 0
    assert invocation_budget_check(result, config)


def test_retrieve_template_exhaustion_hands_over_to_planner():
    template = [ToolAction("mutate", 5)]
    buffer = buffer_with_template(LEAD, template)
    config = config_for("retrieve", buffer=buffer, steps=3)
    result = orc.run_campaign(config, LEAD)
    assert result.steps[0].plan[0] == template[0]
    # Later steps re-retrieve the same record (cursor not reset) and, with
    # the template consumed, plan fresh.
    for step in result.steps[1:]:
        assert len(step.plan) == 1


def test_retrieve_skips_unknown_tools_in_template():
    template = [ToolAction("vanished", 1), ToolAction("swap", 4)]
    buffer = buffer_with_template(LEAD, template)
    config = config_for("retrieve", buffer=buffer, steps=2)
    result = orc.run_campaign(config, LEAD)
    assert result.steps[0].plan[0] == ToolAction("swap", 4)


def test_retrieve_budget_is_single_call_per_step():
    template = [ToolAction("swap", 0), ToolAction("swap", 1), ToolAction("swap", 2)]
    buffer = buffer_with_template(LEAD, template)
    config = config_for("retrieve", buffer=buffer, steps=3)
    result = orc.run_campaign(config, LEAD)
    assert invocation_budget_check(result, config)
    planned = sum(
        1 for step in result.steps for attempt in step.attempts if not attempt.retry
    )
    assert planned == 3


# -- serialization and trajectory extraction ---------------------------------


def test_result_record_round_trip_fields():
    config = config_for("parallel", steps=2, seed=31)
    result = orc.run_campaign(config, LEAD)
    record = json.loads(orc.result_to_line(result))
    assert record["lead"] == result.lead
    assert record["mode"] == "parallel"
    assert len(record["steps"]) == 2


PINNED_LINE = (
    '{"best_seen": {"improvement": 2.0, "relative_improvement": 0.3333333333333333, '
    '"sim": 0.9230769230769231, "smiles": "CCCCCCCO", "step_index": 0, "value": 8.0}, '
    '"initial_value": 6.0, "invocation_count": 2, "lead": "CCCCCO", "mode": "online", '
    '"property_id": "size", "run_id": "pinned", "seed": 5, "steps": [{"attempts": ['
    '{"candidates": ['
    '{"canonical": null, "failure_kind": "invalid_structure", "improvement_vs_lead": null, '
    '"passed": false, "sim_to_lead": null, "smiles": "C1CC", "valid": false, "value": null}, '
    '{"canonical": "CCCCCCO", "failure_kind": "evaluator_error", "improvement_vs_lead": null, '
    '"passed": false, "sim_to_lead": 0.9230769230769231, "smiles": "CCCCCCO", "valid": true, '
    '"value": null}, '
    '{"canonical": "c(cccc1)c1", "failure_kind": "similarity_violation", '
    '"improvement_vs_lead": 4.0, "passed": false, "sim_to_lead": 0.0, "smiles": "c1ccccc1", '
    '"valid": true, "value": 10.0}, '
    '{"canonical": "CCCCO", "failure_kind": "no_improvement", "improvement_vs_lead": -1.0, '
    '"passed": false, "sim_to_lead": 0.7692307692307693, "smiles": "CCCCO", "valid": true, '
    '"value": 5.0}], '
    '"prompt_index": 0, "retry": false, "tool_id": "scripted"}, '
    '{"candidates": ['
    '{"canonical": "CCCCCCCO", "failure_kind": null, "improvement_vs_lead": 2.0, '
    '"passed": true, "sim_to_lead": 0.9230769230769231, "smiles": "CCCCCCCO", "valid": true, '
    '"value": 8.0}], '
    '"prompt_index": 0, "retry": true, "tool_id": "scripted"}], '
    '"chosen": {"improvement": 2.0, "relative": 0.3333333333333333, '
    '"sim": 0.9230769230769231, "smiles": "CCCCCCCO", "value": 8.0}, '
    '"plan": [{"prompt_index": 0, "tool_id": "scripted"}], "rescued": true, '
    '"start": "CCCCCO", "step_index": 0}]}'
)


def test_result_line_pins_failure_kinds_and_retry():
    """Every failure kind, a refused sample and a rescuing retry in one line.

    The builtin tools and evaluators of the golden-bytes test never produce
    an evaluator_error, so this scripted campaign pins that layout.
    """

    def tool_transport(request):
        if "Poor earlier candidates" in request["instruction_text"]:
            return "Try <SMILES>CCCCCCCO</SMILES>."
        return (
            "<SMILES>C1CC</SMILES> <SMILES>CCCCCCO</SMILES> "
            "<SMILES>c1ccccc1</SMILES> <SMILES>CCCCO</SMILES>"
        )

    def evaluator_transport(request):
        smiles = request["smiles_list"]
        errors = [[i, "refused"] for i, s in enumerate(smiles) if s == "CCCCCCO"]
        return {"values": [float(len(s)) for s in smiles], "errors": errors}

    spec = ev.PropertySpec("size", ev.MAXIMIZE, ev.ExternalEvaluator("size", evaluator_transport))
    tool = tl.ToolSpec(
        "scripted", "Scripted editor.", tl.default_templates("scripted"), tl.ExternalTool(tool_transport)
    )
    config = orc.RunConfig(
        mode="online", tool_set=(tool,), property_spec=spec, steps=1, seed=5, run_id="pinned"
    )
    result = orc.run_campaign(config, parse_smiles("CCCCCO"))
    assert orc.result_to_line(result) == PINNED_LINE


def test_trajectory_extraction_matches_steps():
    config = config_for("parallel", steps=3, seed=77)
    result = orc.run_campaign(config, LEAD)
    record = orc.trajectory_from_campaign(result)
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
    assert orc.trajectory_from_campaign(result) is None
