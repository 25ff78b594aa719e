import json
import random

import pytest

from leadopt.buffer import (
    SchemaError,
    StepOutcome,
    ToolAction,
    TrajectoryBuffer,
    TrajectoryRecord,
    prefix_match,
    record_from_dict,
    record_to_dict,
)
from leadopt.fingerprint import morgan_fp, tanimoto
from leadopt.molgraph import canonical_form, parse_smiles

from _molbuild import lead_pool, perturb


def make_record(smiles, property_id="plogp", actions=None, ri=0.5, run_id="r0"):
    mol = parse_smiles(smiles)
    if actions is None:
        actions = [ToolAction("swap", 0)]
    outcomes = [StepOutcome(canonical_form(mol), 1.0, 1.0)] * len(actions)
    return TrajectoryRecord(
        lead=canonical_form(mol),
        lead_fp=morgan_fp(mol),
        property_id=property_id,
        actions=tuple(actions),
        step_outcomes=tuple(outcomes),
        final_relative_improvement=ri,
        run_id=run_id,
    )


def test_insert_grows_buffer():
    buffer = TrajectoryBuffer()
    buffer.insert(make_record("CCO"))
    assert len(buffer) == 1


def test_empty_actions_rejected():
    with pytest.raises(SchemaError):
        make_record("CCO", actions=[])


def test_outcome_length_must_match():
    mol = parse_smiles("CCO")
    with pytest.raises(SchemaError):
        TrajectoryRecord(
            lead=canonical_form(mol),
            lead_fp=morgan_fp(mol),
            property_id="plogp",
            actions=(ToolAction("swap", 0), ToolAction("swap", 1)),
            step_outcomes=(StepOutcome("CCO", 1.0, 1.0),),
            final_relative_improvement=0.1,
            run_id="x",
        )


def test_negative_ri_rejected():
    with pytest.raises(SchemaError):
        make_record("CCO", ri=-0.1)


def test_prompt_index_range():
    with pytest.raises(SchemaError):
        ToolAction("swap", 6)


def test_duplicate_leads_both_retained():
    buffer = TrajectoryBuffer()
    buffer.insert(make_record("CCO", ri=0.1, run_id="a"))
    buffer.insert(make_record("CCO", ri=0.9, run_id="b"))
    assert len(buffer) == 2


def test_top1_returns_argmax():
    buffer = TrajectoryBuffer()
    buffer.insert(make_record("CCCCCCCO"))
    buffer.insert(make_record("CCO"))
    hit = buffer.top1_similar(parse_smiles("CCO"), "plogp")
    assert hit is not None
    record, sim = hit
    assert record.lead == canonical_form(parse_smiles("CCO"))
    assert sim == 1.0


def test_top1_empty_partition():
    buffer = TrajectoryBuffer()
    buffer.insert(make_record("CCO", property_id="plogp"))
    assert buffer.top1_similar(parse_smiles("CCO"), "qed") is None
    assert TrajectoryBuffer().top1_similar(parse_smiles("CCO"), "plogp") is None


def test_top1_tie_breaks_on_ri_then_lead():
    buffer = TrajectoryBuffer()
    # Same lead twice: identical similarity, different final improvement.
    buffer.insert(make_record("CCO", ri=0.2, run_id="low"))
    buffer.insert(make_record("CCO", ri=0.8, run_id="high"))
    record, sim = buffer.top1_similar(parse_smiles("CCO"), "plogp")
    assert record.run_id == "high"

    # Two different leads, both with zero overlap to the query (sim 0.0
    # ties); equal RI resolves to the lexicographically smaller lead.
    tie = TrajectoryBuffer()
    tie.insert(make_record("c1ccccc1", ri=0.5, run_id="a"))
    tie.insert(make_record("c1ccncc1", ri=0.5, run_id="b"))
    query = parse_smiles("[NH4+]")
    record, sim = tie.top1_similar(query, "plogp")
    assert sim == 0.0
    assert record.lead == min(
        canonical_form(parse_smiles("c1ccccc1")), canonical_form(parse_smiles("c1ccncc1"))
    )
    again, _ = tie.top1_similar(query, "plogp")
    assert again.lead == record.lead


def test_retrieval_matches_brute_force_scan():
    rng = random.Random(5)
    leads = lead_pool(301, 12)
    buffer = TrajectoryBuffer()
    for index, lead in enumerate(leads):
        buffer.insert(
            make_record(
                canonical_form(lead),
                ri=rng.random(),
                run_id=f"r{index}",
                actions=[ToolAction("swap", index % 6)],
            )
        )
    for query_base in leads[:6]:
        query = perturb(query_base, rng, edits=2)
        record, sim = buffer.top1_similar(query, "plogp")
        fp = morgan_fp(query)
        brute = max(
            tanimoto(fp, entry.lead_fp) for entry in buffer.records("plogp")
        )
        assert sim == brute


def test_partition_isolation():
    buffer = TrajectoryBuffer()
    buffer.insert(make_record("CCO", property_id="plogp"))
    buffer.insert(make_record("CCO", property_id="qed"))
    record, _ = buffer.top1_similar(parse_smiles("CCO"), "qed")
    assert record.property_id == "qed"


def test_prefix_match_cases():
    a3 = make_record("CCO", actions=[ToolAction("swap", 0), ToolAction("mutate", 2), ToolAction("swap", 1)])
    same = make_record("CCN", actions=[ToolAction("swap", 0), ToolAction("mutate", 2), ToolAction("swap", 1)])
    differs_first = make_record("CCN", actions=[ToolAction("ring", 0), ToolAction("mutate", 2)])
    same_two_of_three = make_record(
        "CCN", actions=[ToolAction("swap", 0), ToolAction("mutate", 2), ToolAction("ring", 4)]
    )
    assert prefix_match(a3, same, 3)
    assert not prefix_match(a3, differs_first, 1)
    assert prefix_match(a3, same_two_of_three, 2)
    assert not prefix_match(a3, same_two_of_three, 3)
    short = make_record("CCN", actions=[ToolAction("swap", 0)])
    assert not prefix_match(a3, short, 2)  # both need >= k actions
    with pytest.raises(ValueError):
        prefix_match(a3, same, 0)


def test_persistence_round_trip(tmp_path):
    rng = random.Random(7)
    buffer = TrajectoryBuffer()
    for index, lead in enumerate(lead_pool(302, 6)):
        buffer.insert(
            make_record(
                canonical_form(lead),
                property_id="plogp" if index % 2 else "qed",
                ri=rng.random(),
                run_id=f"r{index}",
                actions=[ToolAction("swap", 0), ToolAction("ring", 3)],
            )
        )
    path = tmp_path / "buffer.jsonl"
    buffer.flush(str(path))
    reloaded = TrajectoryBuffer.load(str(path))
    assert reloaded.fp_radius == buffer.fp_radius
    assert reloaded.fp_nbits == buffer.fp_nbits
    for property_id in buffer.properties():
        assert reloaded.records(property_id) == buffer.records(property_id)
    # Flushing the reloaded buffer reproduces identical bytes.
    second = tmp_path / "again.jsonl"
    reloaded.flush(str(second))
    assert path.read_bytes() == second.read_bytes()


def test_action_order_survives_reload(tmp_path):
    actions = [ToolAction("mutate", 3), ToolAction("swap", 0), ToolAction("ring", 5)]
    buffer = TrajectoryBuffer()
    buffer.insert(make_record("CCO", actions=actions))
    path = tmp_path / "buffer.jsonl"
    buffer.flush(str(path))
    reloaded = TrajectoryBuffer.load(str(path))
    assert list(reloaded.records("plogp")[0].actions) == actions


def test_load_rejects_tampered_fingerprint(tmp_path):
    record = record_to_dict(make_record("CCO"))
    record["lead"] = canonical_form(parse_smiles("CCN"))  # fp no longer matches
    path = tmp_path / "buffer.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="fingerprint"):
        TrajectoryBuffer.load(str(path))


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "buffer.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        TrajectoryBuffer.load(str(path))


def test_record_dict_round_trip():
    record = make_record("CC(=O)Oc1ccccc1C(=O)O", actions=[ToolAction("swap", 2)])
    assert record_from_dict(record_to_dict(record)) == record


def test_insert_rejects_mismatched_fp_shape():
    buffer = TrajectoryBuffer(fp_radius=3)
    with pytest.raises(SchemaError):
        buffer.insert(make_record("CCO"))  # default radius-2 fingerprint
