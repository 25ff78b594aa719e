"""Every input leadopt accepts ends in a documented outcome, in bounded time.

One property test per input: dataset rows, tool reply text, evaluator
replies, planner replies, buffer lines and results lines. The text is drawn
from the SMILES alphabet, and structured inputs are real documents with a
few fields replaced, so that the fuzzer gets past the JSON layer into the
parser, perception and each reader's field checks.
"""

import contextlib
import copy
import io
import json
import math
import random
import tempfile
import time
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from leadopt import cli
from leadopt import evaluate as ev
from leadopt import orchestrate as orc
from leadopt import tools as tl
from leadopt.buffer import SchemaError, TrajectoryBuffer, record_to_dict
from leadopt.fingerprint import morgan_fp
from leadopt.molgraph import ParseError, canonical_form, parse_smiles, validate, write_smiles

from _molbuild import CURATED_SMILES, aromatic_system, random_molgraph

# Each example must finish well inside this; perception of a few dozen
# characters takes milliseconds.
BOUND_S = 2.0

ATOM_TOKENS = (
    "C", "c", "N", "n", "O", "o", "S", "s", "P", "p", "B", "b", "F", "Cl", "Br", "I",
    "[nH]", "[NH4+]", "[O-]", "[n+]", "[C@@H]", "[CH2]", "[13C]", "[Xe]",
)
SYNTAX_TOKENS = ("(", ")", "=", "#", "-", ":", "/", "\\", "1", "2", "3", "%10", "%99", ".", "[", "]")
# Digits and a letter outside ASCII, which str.isdigit/isupper accept and SMILES does not.
NON_ASCII = ("١", "٣", "²", "೧", "Ä")

seeds = st.integers(0, 2**32 - 1)
molecules = st.one_of(
    st.sampled_from(CURATED_SMILES),
    seeds.map(lambda seed: write_smiles(random_molgraph(random.Random(seed), 3, 20))),
    seeds.map(lambda seed: write_smiles(aromatic_system(random.Random(seed), 1 + seed % 4))),
)
smiles_like = st.one_of(
    st.lists(st.sampled_from(ATOM_TOKENS * 3 + SYNTAX_TOKENS + NON_ASCII), max_size=30).map("".join),
    st.text(alphabet="CNOSPBFIclnopsbrH[]()=#-:/\\@+%0123456789. " + "".join(NON_ASCII), max_size=40),
    molecules,
    st.tuples(molecules, st.integers(0, 80), st.sampled_from(ATOM_TOKENS + SYNTAX_TOKENS + NON_ASCII)).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :]
    ),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    smiles_like,
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(smiles_like, children, max_size=3),
    max_leaves=8,
)


def _like(value) -> st.SearchStrategy:
    """Values of the JSON type of value, so that a replaced field may still pass its check."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-2, 10) | st.integers()
    if isinstance(value, float):
        return st.floats(0, 10) | st.floats(allow_nan=True, allow_infinity=True)
    return smiles_like if isinstance(value, str) else scalars


@st.composite
def mutated(draw, template):
    """A copy of a JSON document with one to three values replaced or keys dropped."""
    document = copy.deepcopy(template)
    for _ in range(draw(st.integers(1, 3))):
        node = document
        while True:
            keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and draw(st.integers(0, 5)) == 0:
                del node[key]
            else:
                node[key] = draw(_like(child) | json_values)
            break
    return document


def lines(template):
    """Text for one line of a JSON-lines file: a mutated document or loose text."""
    return st.one_of(
        mutated(template).map(json.dumps),
        json_values.map(json.dumps),
        smiles_like,
        st.integers(0, 3000).map(lambda depth: "[" * depth),
    )


@contextlib.contextmanager
def bounded():
    start = time.perf_counter()
    yield
    assert time.perf_counter() - start < BOUND_S


def _one_line_file(directory: str, text: str) -> str:
    path = Path(directory) / "input.jsonl"
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


TOOLSET = tl.builtin_toolset()
TOOL_IDS = [spec.tool_id for spec in TOOLSET]
PLOGP = ev.builtin_property("plogp")
LEAD = parse_smiles("CC(C)Cc1ccc(C(C)C(=O)NCCCOc2ccc(Cl)cc2)cc1")
CONFIG = orc.RunConfig(orc.ONLINE, TOOLSET, PLOGP, steps=2, seed=5, run_id="fuzz")
PARALLEL_CONFIG = orc.RunConfig(orc.PARALLEL, TOOLSET, PLOGP, steps=2, seed=5, run_id="fuzz")
# One real results line and one real buffer record, as the writers give them.
RESULT = json.loads(orc.result_to_line(orc.run_campaign(CONFIG, LEAD)))
RECORD = record_to_dict(orc.trajectory_from_campaign(orc.run_campaign(PARALLEL_CONFIG, LEAD)))


def test_templates_are_real_documents():
    assert RESULT["steps"] and RESULT["best_seen"] is not None
    assert RECORD["actions"] and RECORD["lead"] == canonical_form(LEAD)


@settings(max_examples=200)
@given(row=st.one_of(
    st.fixed_dictionaries({"smiles": molecules | smiles_like, "property": st.sampled_from(("plogp", "qed", "drd2"))}),
    mutated({"smiles": "c1ccccc1O", "property": "plogp", "reference": "c1ccccc1"}),
    json_values,
).map(json.dumps) | smiles_like)
def test_dataset_row_is_an_entry_or_a_skipped_row(row):
    with tempfile.TemporaryDirectory() as directory, bounded():
        entries, skipped = cli.ingest(_one_line_file(directory, row), {"plogp", "qed"})
    assert len(entries) + skipped == (1 if row.strip() else 0)  # blank lines are not rows
    event(f"entries={len(entries)}")
    for entry in entries:
        assert validate(entry.mol).valid
        assert canonical_form(parse_smiles(canonical_form(entry.mol))) == canonical_form(entry.mol)


@settings(max_examples=150)
@given(spans=st.lists(smiles_like, max_size=4), noise=smiles_like)
def test_tool_reply_text_gives_checked_candidates(spans, noise):
    reply = noise + "".join(f"<SMILES>{span}</SMILES>{noise}" for span in spans)
    spec = tl.ToolSpec("ext", "external", tl.default_templates("any"), tl.ExternalTool(lambda request: reply))
    lead = orc._LeadContext(canonical_form(LEAD), morgan_fp(LEAD), ev.evaluate(PLOGP, LEAD))
    with bounded():
        candidates = tl.invoke(spec, tl.build_instruction(spec, 0, PLOGP), LEAD, 0)
        checks = orc._check_candidates(candidates, CONFIG, lead)
    assert [check.smiles for check in checks] == spans
    event(f"valid candidates={sum(check.valid for check in checks)}")
    for check in checks:
        try:
            canonical = canonical_form(parse_smiles(check.smiles))
        except ParseError:
            canonical = None
        assert check.valid == (canonical is not None)
        assert check.canonical == canonical
        assert check.passed == (check.failure_kind is None)
        if not check.valid:
            assert check.failure_kind == tl.INVALID_STRUCTURE


@settings(max_examples=200)
@given(
    n=st.integers(0, 4),
    reply=st.one_of(
        mutated({"values": [1.5, -0.25, 3.0, 0.0], "errors": [[1, "timeout"]]}),
        st.fixed_dictionaries({"values": st.lists(scalars, max_size=5)}),
        json_values,
    ),
)
def test_evaluator_reply_gives_values_or_unavailable(n, reply):
    spec = ev.PropertySpec("plogp", ev.MAXIMIZE, ev.ExternalEvaluator("plogp", lambda request: reply))
    mols = [LEAD] * n
    with bounded():
        outcomes = ev.evaluate_batch(spec, mols)
    assert len(outcomes) == n
    event(f"values={sum(not isinstance(o, ev.EvaluatorUnavailableError) for o in outcomes)} of {n}")
    for outcome in outcomes:
        if not isinstance(outcome, ev.EvaluatorUnavailableError):
            assert type(outcome.value) is float and math.isfinite(outcome.value)


@settings(max_examples=200)
@given(
    mode=st.sampled_from((orc.ONLINE, orc.PARALLEL)),
    reply=st.one_of(
        mutated({"tool_calls": [{"tool_name": spec.tool_id, "prompt_index": i} for i, spec in enumerate(TOOLSET)]}).map(json.dumps),
        st.lists(
            st.fixed_dictionaries({"tool_name": st.sampled_from(TOOL_IDS), "prompt_index": st.integers(0, 5)}),
            min_size=1,
            max_size=5,
        ).map(lambda calls: json.dumps({"tool_calls": calls})),
        st.permutations(TOOL_IDS).map(
            lambda order: json.dumps({"tool_calls": [{"tool_name": t, "prompt_index": len(t) % 6} for t in order]})
        ),
        json_values.map(json.dumps),
        smiles_like,
        st.integers(0, 3000).map(lambda depth: "[" * depth),
    ),
)
def test_planner_reply_gives_actions_or_protocol_error(mode, reply):
    config = orc.RunConfig(mode, TOOLSET, PLOGP)
    with bounded():
        try:
            actions = orc._parse_planner_reply(reply, config)
        except orc.PlannerProtocolError:
            event("protocol error")
            return
    event("actions")
    assert actions and len(actions) == config.budget
    for action in actions:
        assert action.tool_id in TOOL_IDS
        assert type(action.prompt_index) is int and 0 <= action.prompt_index <= 5


@settings(max_examples=200)
@given(line=lines(RECORD) | mutated(dict(RECORD, lead="")).flatmap(
    lambda record: smiles_like.map(lambda lead: json.dumps(dict(record, lead=lead)))
))
def test_buffer_line_loads_a_record_or_raises_schema_error(line):
    with tempfile.TemporaryDirectory() as directory, bounded():
        path = _one_line_file(directory, line)
        try:
            buffer = TrajectoryBuffer.load(path)
        except SchemaError as exc:
            assert str(exc).startswith(f"{path}:1: ")
            event("schema error")
            return
    event("loaded")
    records = [record for property_id in buffer.properties() for record in buffer.records(property_id)]
    assert len(records) == (1 if line.strip() else 0)  # blank lines are not records
    for record in records:
        assert validate(parse_smiles(record.lead)).valid


@settings(max_examples=150)
@given(line=lines(RESULT) | st.just(json.dumps(RESULT)))
def test_results_line_reports_or_exits_2(line):
    with tempfile.TemporaryDirectory() as directory, bounded():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["report", "--results", _one_line_file(directory, line)])
    assert code in (0, 2)
    event(f"exit {code}")
    if code == 0:
        assert out.getvalue().startswith("run ")
