import gc
import random
import statistics
import weakref
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadopt import evaluate as ev
from leadopt import tools as tl
from leadopt.fingerprint import morgan_fp, tanimoto
from leadopt.molgraph import MolGraph, ParseError, parse_smiles, validate, write_smiles

from _molbuild import lead_pool, random_molgraph
from _oracles import with_flaky_probability

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
    candidates = tl.invoke(SWAP, tl.build_instruction(SWAP, 0, PLOGP), mol, 7)
    assert len(candidates) == 1
    candidate = parse_smiles(candidates[0])
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
    flaky = with_flaky_probability(FLAKY, 1.0)
    candidates = tl.invoke(flaky, tl.build_instruction(flaky, 0, PLOGP), parse_smiles("CCO"), 3)
    with pytest.raises(ParseError):
        parse_smiles(candidates[0])


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
        assert tl.invoke(spec, instruction, mol, 99) == tl.invoke(spec, instruction, mol, 99)


def test_different_seeds_vary():
    mol = parse_smiles("CC(C)Cc1ccc(C(C)C(=O)O)cc1")
    outputs = {
        tl.invoke(SWAP, tl.build_instruction(SWAP, 0, PLOGP), mol, seed)[0]
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


# -- the edit search against its validate-while-scoring reference -------------

# Leads whose edit options include invalid graphs: `remove` and `move` take
# a terminal atom off a bracket atom or an aromatic n, p or b. Random leads
# have neither, so they never reach the pick's validity check.
INVALID_OPTION_LEADS = (
    "C[N+](C)(C)C",
    "N[C@@H](C)C(=O)O",
    "Cn1cccc1",
    "Cn1ccnc1",
    "C[n+]1ccccc1",
    "Cp1cccc1",
    "Cb1cccc1",
)
# Every builtin surrogate ranks options; a property without one shuffles them.
OBJECTIVES = tuple(map(ev.builtin_property, sorted(ev.BUILTIN_SURROGATES))) + (
    ev.PropertySpec("custom", ev.MINIMIZE),
)


def _reference_option_score(option, property_id, sign):
    d = option.descriptors
    if d is None:
        graph = option.build()
        if not validate(graph).valid:
            return None
        option.build = lambda graph=graph: graph  # reuse the constructed graph
        d = ev.descriptors(graph, property_id)
    return sign * ev.predict(property_id, d)


def _reference_one_edit(profile, style, mol, rng, instruction):
    """The edit search that validated each graph it scored, and again at the pick."""
    d = ev.descriptors(mol, instruction.property_id)
    known_property = instruction.property_id in ev.BUILTIN_SURROGATES
    sign = 1.0 if instruction.direction == ev.MAXIMIZE else -1.0
    for family in tl._FAMILIES_BY_KIND_AND_STYLE[profile.edit_kind][style]:
        options = tl._FAMILY_BUILDERS[family](mol, d, profile.palette, rng)
        if not options:
            continue
        greedy = known_property and rng.random() < profile.competence
        if greedy:
            scored = []
            for position, option in enumerate(options):
                score = _reference_option_score(option, instruction.property_id, sign)
                if score is not None:
                    scored.append((-score, position))
            order = [position for _, position in sorted(scored)]
        else:
            order = list(range(len(options)))
            rng.shuffle(order)
        for position in order:
            graph = options[position].build()
            if validate(graph).valid:
                return graph
    return None


def _reference_step(profile, mol, instruction, seed):
    rng = random.Random(seed)
    style = tl.EDIT_STYLES[instruction.template_index]
    result = mol
    for _ in range(profile.aggressive_edits if style == "aggressive" else 1):
        nxt = _reference_one_edit(profile, style, result, rng, instruction)
        if nxt is None:
            break
        result = nxt
    p_fail = tl.effective_failure_probability(profile, len(instruction.failed_cases))
    if p_fail > 0 and rng.random() < p_fail:
        return write_smiles(result) + "("
    return result


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    lead=st.one_of(st.sampled_from(INVALID_OPTION_LEADS), st.integers(0, 2**32 - 1)),
    seed=st.integers(0, 2**32 - 1),
    objective=st.sampled_from(OBJECTIVES),
)
@example(lead="C[N+](C)(C)C", seed=0, objective=OBJECTIVES[0])
@example(lead="N[C@@H](C)C(=O)O", seed=5, objective=OBJECTIVES[5])
@example(lead="Cn1cccc1", seed=1, objective=OBJECTIVES[1])
@example(lead="Cn1ccnc1", seed=6, objective=OBJECTIVES[2])
@example(lead="C[n+]1ccccc1", seed=2, objective=OBJECTIVES[3])
@example(lead="Cp1cccc1", seed=3, objective=OBJECTIVES[4])
@example(lead="Cb1cccc1", seed=4, objective=OBJECTIVES[6])
def test_edit_search_matches_the_validate_while_scoring_reference(lead, seed, objective):
    # Scoring does not validate, so the greedy order ranks invalid options
    # too; the pick skips them, and every tool makes the reference's edit.
    mol = parse_smiles(lead) if isinstance(lead, str) else random_molgraph(random.Random(lead))
    for spec in TOOLSET:
        for template in range(6):
            instruction = tl.build_instruction(spec, template, objective)
            expected = _reference_step(spec.kind, mol, instruction, seed)
            assert tl.simulated_tool_step(spec.kind, mol, instruction, seed) == expected


@pytest.mark.parametrize("smiles", INVALID_OPTION_LEADS)
def test_the_pick_check_keeps_invalid_options_out(smiles):
    mol = parse_smiles(smiles)
    for family in ("remove", "move"):
        options = tl._FAMILY_BUILDERS[family](mol, ev.descriptors(mol, "qed"), ("C",), random.Random(0))
        assert any(not validate(option.graph).valid for option in options), family
    for spec in TOOLSET:
        for template in range(6):
            for objective in OBJECTIVES:
                for seed in range(3):
                    instruction = tl.build_instruction(spec, template, objective)
                    out = tl.simulated_tool_step(spec.kind, mol, instruction, seed)
                    if isinstance(out, str):
                        assert spec.kind.p_fail > 0
                        with pytest.raises(ParseError):
                            parse_smiles(out)
                    else:
                        assert validate(out).valid, (spec.tool_id, template, write_smiles(out))


# -- records memoized on the molecule ------------------------------------------

# Hexane has nine ring-append pairs, so each ring_append call samples four;
# the other two have invalid options.
MEMO_LEADS = ("CCCCCC", "Cn1cccc1", "C[N+](C)(C)C")
MEMO_OBJECTIVES = tuple(map(ev.builtin_property, ("plogp", "qed", "mutagenicity"))) + (
    ev.PropertySpec("custom", ev.MINIMIZE),
)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    lead=st.one_of(st.sampled_from(MEMO_LEADS), st.integers(0, 2**32 - 1)),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
    order=st.randoms(use_true_random=False),
)
@example(lead="CCCCCC", seeds=[0, 1], order=random.Random(0))
@example(lead="Cn1cccc1", seeds=[2, 3], order=random.Random(1))
@example(lead="C[N+](C)(C)C", seeds=[4, 5], order=random.Random(2))
def test_tool_calls_sharing_a_molecule_match_calls_on_fresh_copies(lead, seeds, order):
    # Edit options and descriptor records are memoized on the molecule; a
    # call must return what it returns on a copy with nothing memoized,
    # whatever calls came before it.
    mol = parse_smiles(lead) if isinstance(lead, str) else random_molgraph(random.Random(lead))
    assert lead != "CCCCCC" or len(tl._ring_pairs(mol)) > 4
    calls = [
        (spec, tl.build_instruction(spec, template, objective), seed)
        for spec in TOOLSET
        for template in range(6)
        for objective in MEMO_OBJECTIVES
        for seed in seeds
    ]
    order.shuffle(calls)
    for spec, instruction, seed in calls:
        fresh = MolGraph(mol.atoms, mol.bonds)
        expected = tl.simulated_tool_step(spec.kind, fresh, instruction, seed)
        assert tl.simulated_tool_step(spec.kind, mol, instruction, seed) == expected


def test_memoized_records_are_keyed_by_property(monkeypatch):
    # Records for qed carry no ring fields; plogp reads the largest ring,
    # here the 8-ring. A plogp call after a qed call on one molecule must
    # score and pick as on a fresh copy.
    mol = parse_smiles("CC1CCCCCCC1")
    ev.surrogate("qed", mol)
    fresh = MolGraph(mol.atoms, mol.bonds)
    assert ev.descriptors(mol, "plogp") == ev.descriptors(fresh, "plogp")
    assert ev.surrogate("plogp", mol) == ev.surrogate("plogp", fresh)

    scores = []
    score = tl._option_score

    def recording_score(option, property_id, sign):
        scores.append(score(option, property_id, sign))
        return scores[-1]

    monkeypatch.setattr(tl, "_option_score", recording_score)
    qed = ev.builtin_property("qed")
    for spec in TOOLSET:
        for template in range(6):
            for seed in range(3):
                tl.simulated_tool_step(spec.kind, mol, tl.build_instruction(spec, template, qed), seed)
    outcomes = {}
    for target in (mol, fresh):
        scores.clear()
        results = [
            tl.simulated_tool_step(spec.kind, target, tl.build_instruction(spec, template, PLOGP), seed)
            for spec in TOOLSET
            for template in range(6)
            for seed in range(3)
        ]
        outcomes[target is mol] = (results, list(scores))
    assert scores
    assert outcomes[True] == outcomes[False]


def test_memoized_options_do_not_keep_their_molecule_alive():
    # The options live in the molecule's memo. A builder that referred back
    # to the molecule would make a cycle, which only a full garbage
    # collection frees; plain reference counting must free it here.
    mol = parse_smiles("CC(C)Cc1ccc(C(C)C(=O)O)cc1")
    for spec in TOOLSET:
        for template in range(6):
            tl.simulated_tool_step(spec.kind, mol, tl.build_instruction(spec, template, PLOGP), 0)
    assert "ring_append" in mol._cache
    alive = weakref.ref(mol)
    gc.disable()
    try:
        del mol
        assert alive() is None
    finally:
        gc.enable()


# -- external tools ----------------------------------------------------------


def test_external_span_extraction():
    def transport(request):
        return "ok <SMILES>CCN</SMILES>"

    spec = tl.ToolSpec("ext", "external", tl.default_templates("any"), tl.ExternalTool(transport))
    candidates = tl.invoke(spec, tl.build_instruction(spec, 0, PLOGP), parse_smiles("CCO"), 1)
    assert candidates == ["CCN"]


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
