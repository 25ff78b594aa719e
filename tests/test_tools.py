import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadopt import evaluate as ev
from leadopt import tools as tl
from leadopt.fingerprint import morgan_fp, tanimoto
from leadopt.molgraph import ParseError, parse_smiles, validate

from _molbuild import lead_pool, random_molgraph

TOOLSET = tl.builtin_toolset()
SWAP, MUTATE, RING, FLAKY = TOOLSET
PLOGP = ev.builtin_property("plogp")


def atom_multiset_diff(a, b):
    """Count of element slots that differ between two molecules."""
    from collections import Counter

    ca = Counter(atom.element for atom in a.atoms)
    cb = Counter(atom.element for atom in b.atoms)
    return sum((ca - cb).values()) + sum((cb - ca).values())


# -- instruction construction -----------------------------------------------


def test_instruction_without_failures_has_no_avoid_block():
    instruction = tl.build_instruction(SWAP, 0, PLOGP)
    assert "avoid" not in instruction.text().lower()
    assert "increase plogp" in instruction.text()
    assert "<SMILES>...</SMILES>" in instruction.text()


def test_instruction_embeds_invalid_smiles_label():
    case = tl.FailedCase("C1CC", tl.INVALID_STRUCTURE)
    text = tl.build_instruction(SWAP, 0, PLOGP, [case]).text()
    assert "C1CC: invalid SMILES" in text


def test_instruction_preserves_order_and_caps_at_two():
    cases = [
        tl.FailedCase("CCA", tl.INVALID_STRUCTURE),
        tl.FailedCase("CCB", tl.NO_IMPROVEMENT),
        tl.FailedCase("CCC", tl.SIMILARITY_VIOLATION),
    ]
    text = tl.build_instruction(SWAP, 2, PLOGP, cases).text()
    assert "CCA" in text and "CCB" in text and "CCC" not in text
    assert text.index("CCA") < text.index("CCB")


def test_instruction_direction_verb():
    mut = ev.builtin_property("mutagenicity")
    assert "decrease mutagenicity" in tl.build_instruction(SWAP, 0, mut).text()


def test_template_index_out_of_range():
    with pytest.raises(IndexError):
        tl.build_instruction(SWAP, 6, PLOGP)
    with pytest.raises(IndexError):
        tl.build_instruction(SWAP, -1, PLOGP)


def test_toolspec_requires_six_templates():
    with pytest.raises(ValueError):
        tl.ToolSpec("x", "desc", ("only", "three", "given"), tl.ToolProfile("swap"))


# -- builtin editors ---------------------------------------------------------


def test_swap_on_ethanol_small_diff():
    mol = parse_smiles("CCO")
    result = tl.invoke(SWAP, tl.build_instruction(SWAP, 0, PLOGP), mol, 7)
    assert len(result.candidates) == 1
    candidate = parse_smiles(result.candidates[0])
    assert abs(len(candidate.atoms) - len(mol.atoms)) <= 1
    assert atom_multiset_diff(candidate, mol) <= 2


def test_mutate_changes_one_element():
    mol = parse_smiles("CCO")
    out = tl.simulated_tool_step(MUTATE.kind, mol, tl.build_instruction(MUTATE, 0, PLOGP), 5)
    assert not isinstance(out, str)
    assert validate(out).valid
    assert len(out.atoms) == len(mol.atoms)
    changed = sum(
        1 for a, b in zip(out.atoms, mol.atoms) if a.element != b.element
    )
    assert changed == 1


def test_ring_tool_adds_ring_to_hexane():
    mol = parse_smiles("CCCCCC")
    out = tl.simulated_tool_step(RING.kind, mol, tl.build_instruction(RING, 0, PLOGP), 3)
    assert not isinstance(out, str)
    rings_before = len(mol.bonds) - len(mol.atoms) + 1
    rings_after = len(out.bonds) - len(out.atoms) + 1
    assert rings_after == rings_before + 1


def test_flaky_always_fails_at_probability_one():
    flaky = tl.with_flaky_probability(FLAKY, 1.0)
    result = tl.invoke(flaky, tl.build_instruction(flaky, 0, PLOGP), parse_smiles("CCO"), 3)
    with pytest.raises(ParseError):
        parse_smiles(result.candidates[0])


def test_damping_arithmetic():
    profile = tl.ToolProfile("swap", p_fail=0.5, fail_damping=0.5)
    assert tl.effective_failure_probability(profile, 0) == pytest.approx(0.5)
    assert tl.effective_failure_probability(profile, 1) == pytest.approx(0.25)
    assert tl.effective_failure_probability(profile, 2) == pytest.approx(0.125)
    floor = tl.ToolProfile("swap", p_fail=0.5, fail_damping=0.5, fail_floor=0.2)
    assert tl.effective_failure_probability(floor, 3) == pytest.approx(0.2)
    assert tl.effective_failure_probability(tl.ToolProfile("swap"), 5) == 0.0


def test_seeded_determinism():
    mol = parse_smiles("CC(C)Cc1ccc(C(C)C(=O)O)cc1")
    for spec in TOOLSET:
        instruction = tl.build_instruction(spec, 4, PLOGP)
        first = tl.invoke(spec, instruction, mol, 99)
        second = tl.invoke(spec, instruction, mol, 99)
        assert first.candidates == second.candidates
        assert first.raw_payload == second.raw_payload


def test_different_seeds_vary():
    mol = parse_smiles("CC(C)Cc1ccc(C(C)C(=O)O)cc1")
    outputs = {
        tl.invoke(SWAP, tl.build_instruction(SWAP, 0, PLOGP), mol, seed).candidates[0]
        for seed in range(20)
    }
    assert len(outputs) > 1


def test_edits_keep_molecules_valid():
    rng = random.Random(14)
    for index in range(120):
        mol = random_molgraph(rng, n_min=6, n_max=20)
        spec = TOOLSET[index % 3]
        instruction = tl.build_instruction(spec, index % 6, PLOGP)
        out = tl.simulated_tool_step(spec.kind, mol, instruction, 7000 + index)
        assert not isinstance(out, str)
        assert validate(out).valid


def test_flaky_responsiveness_over_1000_trials():
    leads = lead_pool(61, 8)
    failed_case = [tl.FailedCase("CCX", tl.INVALID_STRUCTURE)]
    plain = fed = 0
    trials = 1000
    for index in range(trials):
        mol = leads[index % len(leads)]
        seed = 40_000 + index
        bare = tl.simulated_tool_step(
            FLAKY.kind, mol, tl.build_instruction(FLAKY, 0, PLOGP), seed
        )
        corrected = tl.simulated_tool_step(
            FLAKY.kind, mol, tl.build_instruction(FLAKY, 0, PLOGP, failed_case), seed
        )
        plain += isinstance(bare, str)
        fed += isinstance(corrected, str)
    assert fed / trials < plain / trials


def test_behavioral_separation_mean_similarity():
    leads = lead_pool(62, 10)
    means = {}
    for spec in (SWAP, MUTATE, RING):
        sims = []
        for index in range(500):
            mol = leads[index % len(leads)]
            instruction = tl.build_instruction(spec, index % 6, PLOGP)
            out = tl.simulated_tool_step(spec.kind, mol, instruction, 50_000 + index)
            assert not isinstance(out, str)
            sims.append(tanimoto(morgan_fp(out), morgan_fp(mol)))
        means[spec.tool_id] = statistics.mean(sims)
    assert means["swap"] > means["mutate"] > means["ring"]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    property_id=st.sampled_from(sorted(ev.BUILTIN_SURROGATES)),
)
def test_edit_option_descriptors_match_built_graph(seed, property_id):
    # The editors rank options by descriptor arithmetic instead of building
    # each graph; the predicted record must be the built graph's record.
    mol = random_molgraph(random.Random(seed))
    d = ev.descriptors(mol, property_id)
    palette = ("C", "N", "O", "S", "F", "Cl", "Br")
    for builder in tl._FAMILY_BUILDERS.values():
        for option in builder(mol, d, palette, random.Random(seed)):
            if option.descriptors is None:
                continue
            built = ev.descriptors(option.build(), property_id)
            assert option.descriptors.logp == pytest.approx(built.logp, abs=1e-9)
            assert replace(option.descriptors, logp=built.logp) == built


# -- external tools ----------------------------------------------------------


def test_external_span_extraction():
    def transport(request):
        return "ok <SMILES>CCN</SMILES>"

    spec = tl.ToolSpec("ext", "external", tl.default_templates("any"), tl.ExternalTool(transport))
    result = tl.invoke(spec, tl.build_instruction(spec, 0, PLOGP), parse_smiles("CCO"), 1)
    assert result.candidates == ["CCN"]


def test_external_request_fields():
    seen = {}

    def transport(request):
        seen.update(request)
        return "<SMILES>CC</SMILES>"

    spec = tl.ToolSpec("ext", "external", tl.default_templates("any"), tl.ExternalTool(transport))
    tl.invoke(spec, tl.build_instruction(spec, 2, PLOGP), parse_smiles("CCO"), 1)
    assert seen["tool_id"] == "ext"
    assert seen["property_id"] == "plogp"
    assert seen["direction"] == "maximize"
    assert parse_smiles(seen["smiles"]) is not None
    assert "<SMILES>...</SMILES>" in seen["instruction_text"]


@pytest.mark.parametrize(
    "payload,expected",
    [
        ("", []),
        ("no spans at all", []),
        ("<SMILES></SMILES>", [""]),
        ("<SMILES>C</SMILES><SMILES>N</SMILES>", ["C", "N"]),
        ("<SMILES> CC </SMILES>", [" CC "]),  # verbatim, no trimming
        ("<SMILES>multi\nline</SMILES>", ["multi\nline"]),
        ("<smiles>c</smiles>", []),  # tags are case-sensitive
        (None, []),
        (12345, []),
    ],
)
def test_extraction_totality(payload, expected):
    assert tl.extract_candidates(payload) == expected


def test_external_transport_failure():
    def transport(request):
        raise OSError("socket closed")

    spec = tl.ToolSpec("ext", "external", tl.default_templates("any"), tl.ExternalTool(transport))
    with pytest.raises(tl.ToolUnavailableError):
        tl.invoke(spec, tl.build_instruction(spec, 0, PLOGP), parse_smiles("CCO"), 1)


def test_no_op_when_nothing_applicable():
    # A bare methane offers the mutate profile nothing to edit; the tool
    # falls back to returning the input (which then fails no-improvement).
    mol = parse_smiles("C")
    out = tl.simulated_tool_step(MUTATE.kind, mol, tl.build_instruction(MUTATE, 0, PLOGP), 2)
    if not isinstance(out, str):
        assert validate(out).valid
