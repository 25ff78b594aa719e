import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadopt import metrics as mx

from _oracles import brute_force_metrics


def make_outcome(
    succeeded=True,
    sim=0.7,
    ri=0.5,
    best_step=0,
    n_steps=3,
    generated=(),
    action_stats=(),
):
    return mx.SampleOutcome(
        succeeded=succeeded,
        sim=sim if succeeded else None,
        ri=ri if succeeded else None,
        best_step=best_step if succeeded else None,
        n_steps=n_steps,
        generated=tuple(generated),
        action_stats=tuple(action_stats),
    )


def cand(step, passed=True, valid=True, canonical="CC"):
    return mx.GeneratedCandidate(
        canonical=canonical if valid else None,
        valid=valid, step_index=step, passed=passed,
    )


# -- success rate -------------------------------------------------------------


def test_success_rate_three_of_four():
    outcomes = [make_outcome(succeeded=True)] * 3 + [make_outcome(succeeded=False)]
    assert mx.compile_report(outcomes).sr == pytest.approx(75.0)


def test_success_rate_extremes():
    assert mx.compile_report([make_outcome(succeeded=False)] * 5).sr == 0.0
    assert mx.compile_report([make_outcome(succeeded=True)] * 5).sr == 100.0


def test_success_rate_empty_input():
    with pytest.raises(mx.EmptyInputError):
        mx.compile_report([])


def test_adding_failed_sample_never_increases_sr():
    outcomes = [make_outcome(succeeded=True)] * 3
    before = mx.compile_report(outcomes).sr
    after = mx.compile_report(outcomes + [make_outcome(succeeded=False)]).sr
    assert after < before


# -- similarity ----------------------------------------------------------------


def test_similarity_mean_over_successes():
    outcomes = [make_outcome(sim=0.6), make_outcome(sim=0.8)]
    assert mx.compile_report(outcomes).sim == pytest.approx(70.0)


def test_similarity_single_success():
    assert mx.compile_report([make_outcome(sim=0.55)]).sim == pytest.approx(55.0)


def test_similarity_ignores_failures():
    outcomes = [make_outcome(sim=0.6), make_outcome(succeeded=False)]
    assert mx.compile_report(outcomes).sim == pytest.approx(60.0)


def test_similarity_requires_a_success():
    assert mx.compile_report([make_outcome(succeeded=False)]).sim is None


# -- relative improvement -------------------------------------------------------


def test_ri_mean():
    outcomes = [make_outcome(ri=0.25), make_outcome(ri=0.75)]
    assert mx.compile_report(outcomes).ri == pytest.approx(50.0)


def test_ri_excludes_low_similarity_successes():
    outcomes = [make_outcome(ri=0.25, sim=0.45), make_outcome(ri=0.75, sim=0.9)]
    assert mx.compile_report(outcomes).ri == pytest.approx(75.0)


def test_ri_values_above_100_percent():
    assert mx.compile_report([make_outcome(ri=1.6305)]).ri == pytest.approx(163.05)


def test_ri_zero_initial_excluded_with_flag():
    outcomes = [make_outcome(ri=None), make_outcome(ri=0.5)]
    assert mx.compile_report(outcomes).ri == pytest.approx(50.0)
    report = mx.compile_report(
        [
            make_outcome(
                ri=None,
                generated=[cand(0)],
            ),
            make_outcome(ri=0.5, generated=[cand(0)]),
        ]
    )
    assert report.counts["ri_zero_initial_excluded"] == 1
    assert report.counts["ri_eligible"] == 1


def test_ri_absent_when_no_eligible():
    assert mx.compile_report([make_outcome(succeeded=False)]).ri is None


# -- validity -------------------------------------------------------------------


def test_validity_rate_counts_all_generated():
    generated = [cand(0, valid=True)] * 9 + [cand(0, valid=False, passed=False)]
    outcomes = [make_outcome(generated=generated)]
    assert mx.compile_report(outcomes).vr == pytest.approx(90.0)


def test_validity_rate_clean_tools():
    outcomes = [make_outcome(generated=[cand(0), cand(1)])] * 3
    assert mx.compile_report(outcomes).vr == pytest.approx(100.0)


def test_validity_rate_empty():
    report = mx.compile_report([make_outcome(generated=[])])
    assert report.vr is None
    assert mx.render_table(report).splitlines()[1].split()[-1] == "--"


# -- best from ------------------------------------------------------------------


def test_best_from_distribution():
    outcomes = [
        make_outcome(best_step=0),
        make_outcome(best_step=2),
        make_outcome(best_step=2),
        make_outcome(best_step=2),
    ]
    assert mx.compile_report(outcomes).best_from == pytest.approx([25.0, 0.0, 75.0])


def test_best_from_all_last_step():
    outcomes = [make_outcome(best_step=2)] * 4
    assert mx.compile_report(outcomes).best_from == pytest.approx([0.0, 0.0, 100.0])


def test_best_from_sums_to_100():
    outcomes = [make_outcome(best_step=i % 3) for i in range(7)]
    assert sum(mx.compile_report(outcomes).best_from) == pytest.approx(100.0)


def test_best_from_requires_success():
    assert mx.compile_report([make_outcome(succeeded=False)]).best_from == ()


# -- novelty ---------------------------------------------------------------------


def test_novelty_repeat_not_novel():
    generated = [
        cand(0, canonical="CC"),
        cand(1, canonical="CC"),  # repeat of step-0 structure
        cand(1, canonical="CN"),
    ]
    outcomes = [make_outcome(generated=generated, n_steps=2)]
    novelty = mx.compile_report(outcomes).novelty
    assert novelty[0] == pytest.approx(100.0)
    assert novelty[1] == pytest.approx(50.0)


def test_novelty_first_step_always_100():
    outcomes = [make_outcome(generated=[cand(0, canonical=c) for c in ("CC", "CN")])]
    assert mx.compile_report(outcomes).novelty[0] == pytest.approx(100.0)


def test_novelty_counts_failing_candidates_as_prior_art():
    generated = [
        cand(0, canonical="CC", passed=False),
        cand(1, canonical="CC"),
    ]
    outcomes = [make_outcome(generated=generated, n_steps=2)]
    assert mx.compile_report(outcomes).novelty[1] == pytest.approx(0.0)


def test_novelty_none_when_no_passing_candidates():
    outcomes = [make_outcome(generated=[cand(0, passed=False)], n_steps=2)]
    assert mx.compile_report(outcomes).novelty[1] is None


def test_novelty_scoped_per_sample():
    first = make_outcome(generated=[cand(0, canonical="CC")], n_steps=2)
    second = make_outcome(generated=[cand(1, canonical="CC")], n_steps=2)
    novelty = mx.compile_report([first, second]).novelty
    # The step-1 candidate in the second sample never saw "CC" in its own
    # trajectory, so it stays novel.
    assert novelty[1] == pytest.approx(100.0)


# -- error and rescue -------------------------------------------------------------


def test_error_rate_per_step():
    generated = [cand(0, passed=i < 6) for i in range(10)]
    outcomes = [make_outcome(generated=generated)]
    assert mx.compile_report(outcomes).error_rate[0] == pytest.approx(40.0)


def test_rescue_rate():
    stats = [
        mx.ActionStat(0, first_failed=True, rescued=True),
        mx.ActionStat(0, first_failed=True, rescued=False),
        mx.ActionStat(0, first_failed=True, rescued=False),
        mx.ActionStat(0, first_failed=False, rescued=False),
    ]
    outcomes = [make_outcome(action_stats=stats)]
    assert mx.compile_report(outcomes).rescue_rate[0] == pytest.approx(100.0 / 3.0)


def test_rescue_rate_absent_without_failures():
    stats = [mx.ActionStat(0, first_failed=False, rescued=False)]
    outcomes = [make_outcome(action_stats=stats, generated=[cand(0)])]
    assert mx.compile_report(outcomes).rescue_rate[0] is None


# -- report assembly ---------------------------------------------------------------


def test_per_step_candidate_counts_conserve_vr_denominator():
    outcomes = [
        make_outcome(generated=[cand(0), cand(1), cand(1, valid=False, passed=False)]),
        make_outcome(generated=[cand(0), cand(2)]),
    ]
    report = mx.compile_report(outcomes)
    per_step = [0] * report.counts["steps"]
    for outcome in outcomes:
        for candidate in outcome.generated:
            per_step[candidate.step_index] += 1
    assert sum(per_step) == report.counts["generated"]


def test_compile_report_counts_and_denominators():
    outcomes = [
        make_outcome(generated=[cand(0), cand(1, valid=False, passed=False)]),
        make_outcome(succeeded=False, generated=[cand(0, passed=False)]),
    ]
    report = mx.compile_report(outcomes)
    assert report.counts["samples"] == 2
    assert report.counts["succeeded"] == 1
    assert report.counts["generated"] == 3
    assert report.counts["valid"] == 2
    assert report.sr == pytest.approx(50.0)
    assert report.vr == pytest.approx(2 / 3 * 100.0)


def test_report_zero_successes_marks_absent():
    outcomes = [make_outcome(succeeded=False, generated=[cand(0, passed=False)])]
    report = mx.compile_report(outcomes)
    assert report.sr == 0.0
    assert report.sim is None and report.ri is None
    table = mx.render_table(report)
    assert "0.00" in table and "--" in table


def test_render_table_two_decimals():
    outcomes = [
        make_outcome(generated=[cand(0)]),
        make_outcome(generated=[cand(0)]),
        make_outcome(generated=[cand(0)]),
        make_outcome(succeeded=False, generated=[cand(0, passed=False)]),
    ]
    table = mx.render_table(mx.compile_report(outcomes), label="demo")
    assert "75.00" in table
    assert table.splitlines()[0].split() == ["run", "SR", "SIM", "RI", "VR"]


def test_per_step_csv_length_and_blanks():
    outcomes = [
        make_outcome(
            generated=[cand(0), cand(1)],
            action_stats=[mx.ActionStat(0, True, True)],
            n_steps=3,
        )
    ]
    text = mx.per_step_csv(mx.compile_report(outcomes))
    lines = text.strip().splitlines()
    assert lines[0] == "step,error_rate,rescue_rate,best_from,novelty"
    assert len(lines) == 4  # header + 3 steps
    assert lines[1].startswith("1,")
    # Step 3 generated nothing: ER blank.
    assert lines[3].split(",")[1] == ""


# -- record distillation ------------------------------------------------------------


def fake_record():
    return {
        "lead": "CCO",
        "property_id": "plogp",
        "mode": "online",
        "seed": 1,
        "run_id": "r",
        "initial_value": 1.0,
        "invocation_count": 3,
        "best_seen": {
            "smiles": "CCN",
            "value": 1.5,
            "sim": 0.8,
            "improvement": 0.5,
            "relative_improvement": 0.5,
            "step_index": 1,
        },
        "steps": [
            {
                "step_index": 0,
                "start": "CCO",
                "plan": [{"tool_id": "swap", "prompt_index": 0}],
                "attempts": [
                    {
                        "tool_id": "swap",
                        "prompt_index": 0,
                        "retry": False,
                        "candidates": [
                            {
                                "smiles": "CC(",
                                "valid": False,
                                "canonical": None,
                                "sim_to_lead": None,
                                "value": None,
                                "improvement_vs_lead": None,
                                "failure_kind": "invalid_structure",
                                "passed": False,
                            }
                        ],
                    },
                    {
                        "tool_id": "swap",
                        "prompt_index": 0,
                        "retry": True,
                        "candidates": [
                            {
                                "smiles": "CCC",
                                "valid": True,
                                "canonical": "CCC",
                                "sim_to_lead": 0.9,
                                "value": 1.2,
                                "improvement_vs_lead": 0.2,
                                "failure_kind": None,
                                "passed": True,
                            }
                        ],
                    },
                ],
                "chosen": {
                    "smiles": "CCC",
                    "value": 1.2,
                    "sim": 0.9,
                    "improvement": 0.2,
                    "relative": 0.2,
                },
                "rescued": True,
            },
            {
                "step_index": 1,
                "start": "CCC",
                "plan": [{"tool_id": "mutate", "prompt_index": 1}],
                "attempts": [
                    {
                        "tool_id": "mutate",
                        "prompt_index": 1,
                        "retry": False,
                        "candidates": [
                            {
                                "smiles": "CCN",
                                "valid": True,
                                "canonical": "CCN",
                                "sim_to_lead": 0.8,
                                "value": 1.5,
                                "improvement_vs_lead": 0.5,
                                "failure_kind": None,
                                "passed": True,
                            }
                        ],
                    }
                ],
                "chosen": {
                    "smiles": "CCN",
                    "value": 1.5,
                    "sim": 0.8,
                    "improvement": 0.5,
                    "relative": 0.5,
                },
                "rescued": False,
            },
        ],
    }


def test_outcome_from_record():
    outcome = mx.outcome_from_record(fake_record())
    assert outcome.succeeded
    assert outcome.sim == 0.8
    assert outcome.ri == 0.5
    assert outcome.best_step == 1
    assert outcome.n_steps == 2
    assert len(outcome.generated) == 3
    stats = {(s.step_index, s.first_failed, s.rescued) for s in outcome.action_stats}
    assert (0, True, True) in stats
    assert (1, False, False) in stats


def test_outcome_from_record_metrics_pipeline():
    outcomes = [mx.outcome_from_record(fake_record())]
    report = mx.compile_report(outcomes)
    assert report.sr == 100.0
    assert report.vr == pytest.approx(2 / 3 * 100)
    assert report.error_rate[0] == pytest.approx(50.0)
    assert report.rescue_rate[0] == pytest.approx(100.0)
    assert report.rescue_rate[1] is None


# -- the one pass against an independent recomputation ---------------------------

CANONICALS = ("CC", "CCN", "CCO", "c1ccccc1")


@st.composite
def written_candidate(draw):
    valid = draw(st.booleans())
    passed = valid and draw(st.booleans())
    return {
        "smiles": draw(st.sampled_from(CANONICALS)),
        "valid": valid,
        "canonical": draw(st.sampled_from(CANONICALS)) if valid else None,
        "sim_to_lead": draw(st.floats(0, 1)) if valid else None,
        "value": draw(st.floats(-10, 10)) if valid else None,
        "improvement_vs_lead": draw(st.none() | st.floats(-10, 10)) if valid else None,
        "failure_kind": None if passed else "no_improvement",
        "passed": passed,
    }


@st.composite
def written_record(draw):
    """A campaign record laid out as the result writer writes it.

    Per step, each planned action has one first attempt; one that produced
    no passing candidate may be followed by its retry.
    """
    steps = []
    for step_index in range(draw(st.integers(1, 4))):
        plan = draw(
            st.lists(
                st.tuples(st.sampled_from(("swap", "mutate", "ring")), st.integers(0, 5)),
                min_size=1, max_size=3, unique=True,
            )
        )
        attempts = []
        for tool_id, prompt_index in plan:
            for retry in (False, True):
                candidates = draw(st.lists(written_candidate(), max_size=3))
                attempts.append(
                    {"tool_id": tool_id, "prompt_index": prompt_index, "retry": retry, "candidates": candidates}
                )
                if any(c["passed"] for c in candidates) or not draw(st.booleans()):
                    break
        steps.append(
            {
                "step_index": step_index,
                "start": "CCO",
                "plan": [{"tool_id": t, "prompt_index": i} for t, i in plan],
                "attempts": attempts,
                "chosen": None,
                "rescued": False,
            }
        )
    best_seen = draw(
        st.none()
        | st.fixed_dictionaries(
            {
                "smiles": st.sampled_from(CANONICALS),
                "value": st.floats(-10, 10),
                "sim": st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 1),
                "improvement": st.floats(0, 10),
                "relative_improvement": st.none() | st.floats(0, 10),
                "step_index": st.integers(0, len(steps) - 1),
            }
        )
    )
    return {
        "lead": "CCO", "property_id": "plogp", "mode": "online", "seed": 1, "run_id": "r",
        "initial_value": 1.0, "invocation_count": len(steps), "steps": steps, "best_seen": best_seen,
    }


def _no_candidate_run():
    record = fake_record()
    for step in record["steps"]:
        for attempt in step["attempts"]:
            attempt["candidates"] = []
    record["best_seen"] = None
    return record


@settings(max_examples=300, deadline=None)
@given(records=st.lists(written_record(), min_size=1, max_size=5))
@example(records=[_no_candidate_run()])
@example(records=[_no_candidate_run(), fake_record()])
def test_one_pass_equals_the_brute_force_oracle(records):
    report = mx.compile_report([mx.outcome_from_record(record) for record in records])
    oracle = brute_force_metrics(records)
    assert (report.sr, report.sim, report.ri, report.vr) == (
        oracle["sr"], oracle["sim"], oracle["ri"], oracle["vr"]
    )
    assert list(report.best_from) == oracle["bf"]
    assert list(report.novelty) == oracle["nov"]
    assert list(report.error_rate) == oracle["er"]
    assert list(report.rescue_rate) == oracle["rr"]
