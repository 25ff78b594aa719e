import json
import random
import re

import pytest

from leadopt.buffer import (
    SchemaError,
    StepOutcome,
    ToolAction,
    TrajectoryBuffer,
    TrajectoryRecord,
    record_from_dict,
    record_to_dict,
)
from leadopt.fingerprint import morgan_fp, tanimoto
from leadopt.molgraph import canonical_form, parse_smiles

from _molbuild import lead_pool, loose_hex_spellings, perturb
from _oracles import prefix_match


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


# -- malformed buffer files ----------------------------------------------------
#
# Each builder returns the lines of one malformed buffer file. MALFORMED_BUFFERS
# lists every case below, so that tests of other readers of buffer files (the
# CLI's retrieve runs) can check them against load.

BAD_LEADS = ["C1CC", 5]
WRONGLY_TYPED_FIELDS = [
    (("property_id",), ["plogp"]),
    (("run_id",), {"run": 0}),
    (("actions", 0, "tool_id"), ["swap"]),
    (("step_outcomes", 0, "smiles"), 7),
    (("actions", 0, "prompt_index"), 2.9),
    (("actions", 0, "prompt_index"), True),
    (("actions", 0, "prompt_index"), "1"),
    (("step_outcomes", 0, "value"), "1.0"),
    (("step_outcomes", 0, "value"), float("inf")),
    (("step_outcomes", 0, "sim"), True),
    (("final_ri",), "nan"),
    (("final_ri",), float("nan")),
    (("final_ri",), None),
]
OTHER_FP_SHAPES = [("fp_radius", 3), ("fp_nbits", 1024), ("fp_nbits", "2048")]
# Ibuprofen's fingerprint starts with "00" and has a-f digits, so every loose
# spelling of it parses to the same bits with int(text, 16).
LOOSE_LEAD = "CC(C)Cc1ccc(C(C)C(=O)O)cc1"
LOOSE_FORMS = sorted(loose_hex_spellings(make_record(LOOSE_LEAD).lead_fp.to_hex()))


def write_buffer_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def good_line():
    return json.dumps(record_to_dict(make_record("CCO")))


def tampered_fingerprint_lines():
    record = record_to_dict(make_record("CCO"))
    record["lead"] = canonical_form(parse_smiles("CCN"))  # fp no longer matches
    return [json.dumps(record)]


def bad_lead_lines(lead):
    return [good_line(), json.dumps(dict(record_to_dict(make_record("CCO")), lead=lead))]


def wrongly_typed_lines(where, value):
    bad = record_to_dict(make_record("CCO"))
    *path_to, key = where
    target = bad
    for step in path_to:
        target = target[step]
    target[key] = value
    return [good_line(), json.dumps(bad)]


def other_fp_shape_lines(key, value):
    return [json.dumps(dict(record_to_dict(make_record("CCO")), **{key: value}))]


def loose_fingerprint_lines(form):
    loose = record_to_dict(make_record(LOOSE_LEAD))
    loose["lead_fp_hex"] = loose_hex_spellings(loose["lead_fp_hex"])[form]
    return [good_line(), json.dumps(loose)]


def flipped_bit_lines():
    data = record_to_dict(make_record(LOOSE_LEAD))
    digits = data["lead_fp_hex"]
    position = len(digits) - 1
    data["lead_fp_hex"] = digits[:position] + format(int(digits[position], 16) ^ 1, "x")
    return [json.dumps(data)]


# Characters that str.strip() removes but JSON does not count as whitespace,
# and that no line end splits off.
NON_JSON_SPACES = ["\u3000", "\x1c", "\x85", "\xa0", "\x0b", "\x0c"]


def non_json_space_lines(space, padded):
    """A good line, then a good line padded with ``space`` or ``space`` alone."""
    return [good_line(), good_line() + space if padded else space]


MALFORMED_BUFFERS = [
    pytest.param(tampered_fingerprint_lines, (), id="tampered-fingerprint"),
    pytest.param(lambda: ["{not json}"], (), id="malformed-line"),
    *(
        pytest.param(non_json_space_lines, (space, padded), id=f"{'padded' if padded else 'lone'}-{space!r}")
        for space in NON_JSON_SPACES
        for padded in (True, False)
    ),
    *(pytest.param(bad_lead_lines, (lead,), id=f"lead-{lead!r}") for lead in BAD_LEADS),
    *(pytest.param(wrongly_typed_lines, case, id=f"wrong-type-{case!r}") for case in WRONGLY_TYPED_FIELDS),
    *(pytest.param(other_fp_shape_lines, case, id=f"fp-shape-{case!r}") for case in OTHER_FP_SHAPES),
    *(pytest.param(loose_fingerprint_lines, (form,), id=f"loose-fp-{form}") for form in LOOSE_FORMS),
    pytest.param(flipped_bit_lines, (), id="flipped-fingerprint-bit"),
]


def test_load_rejects_tampered_fingerprint(tmp_path):
    path = tmp_path / "buffer.jsonl"
    write_buffer_lines(path, tampered_fingerprint_lines())
    with pytest.raises(SchemaError, match="fingerprint"):
        TrajectoryBuffer.load(str(path))


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "buffer.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        TrajectoryBuffer.load(str(path))


@pytest.mark.parametrize("padded", [True, False], ids=["padded", "lone"])
@pytest.mark.parametrize("space", NON_JSON_SPACES, ids=repr)
def test_load_rejects_a_line_with_whitespace_json_does_not_allow(tmp_path, space, padded):
    path = tmp_path / "buffer.jsonl"
    write_buffer_lines(path, non_json_space_lines(space, padded))
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ")):
        TrajectoryBuffer.load(str(path))


def test_load_skips_lines_of_json_whitespace(tmp_path):
    path = tmp_path / "buffer.jsonl"
    path.write_bytes(b" \t\n" + good_line().encode() + b"\t \r\n\n\r" + good_line().encode() + b" \n")
    assert len(TrajectoryBuffer.load(str(path))) == 2


@pytest.mark.parametrize("lead", BAD_LEADS, ids=["unparseable-lead", "numeric-lead"])
def test_load_rejects_bad_lead_naming_line(tmp_path, lead):
    path = tmp_path / "buffer.jsonl"
    write_buffer_lines(path, bad_lead_lines(lead))
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ")):
        TrajectoryBuffer.load(str(path))


@pytest.mark.parametrize("where, value", WRONGLY_TYPED_FIELDS, ids=repr)
def test_load_rejects_wrongly_typed_field_naming_line(tmp_path, where, value):
    path = tmp_path / "buffer.jsonl"
    write_buffer_lines(path, wrongly_typed_lines(where, value))
    key = where[-1]
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: {key} has the wrong type")):
        TrajectoryBuffer.load(str(path))


def test_record_dict_round_trip():
    record = make_record("CC(=O)Oc1ccccc1C(=O)O", actions=[ToolAction("swap", 2)])
    assert record_from_dict(record_to_dict(record)) == record


@pytest.mark.parametrize("key, value", OTHER_FP_SHAPES)
def test_load_rejects_other_fp_shape(tmp_path, key, value):
    path = tmp_path / "buffer.jsonl"
    write_buffer_lines(path, other_fp_shape_lines(key, value))
    with pytest.raises(SchemaError, match=re.escape(f"{path}:1: fingerprint radius/nbits")):
        TrajectoryBuffer.load(str(path))


@pytest.mark.parametrize("form", LOOSE_FORMS)
def test_load_rejects_loose_fingerprint_spelling_naming_line(tmp_path, form):
    path = tmp_path / "buffer.jsonl"
    write_buffer_lines(path, loose_fingerprint_lines(form))
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ") + ".*lowercase hex digits"):
        TrajectoryBuffer.load(str(path))


def test_load_recomputes_fingerprint_already_computed_in_process(tmp_path):
    record = make_record(LOOSE_LEAD)
    path = tmp_path / "buffer.jsonl"
    write_buffer_lines(path, flipped_bit_lines())
    # The same lead's fingerprint is memoized on these molecules; load must
    # still parse the stored lead afresh and compare.
    assert morgan_fp(parse_smiles(record.lead)) == record.lead_fp
    assert morgan_fp(parse_smiles(LOOSE_LEAD)) == record.lead_fp
    with pytest.raises(SchemaError, match=re.escape(f"{path}:1: stored fingerprint")):
        TrajectoryBuffer.load(str(path))
