import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadopt import evaluate as ev
from leadopt import fingerprint
from leadopt import molgraph as mg
from leadopt import tools as tl
from leadopt.fingerprint import morgan_fp
from leadopt.molgraph import (
    ALLOWED_VALENCE,
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    FragmentError,
    KekulizeError,
    MolGraph,
    RingError,
    SmilesSyntaxError,
    ValenceError,
    aromatic_ring_count,
    bond_order_sums,
    canonical_form,
    free_valence,
    hydrogen_counts,
    largest_ring_size,
    parse_smiles,
    ring_atom_flags,
    ring_bond_flags,
    validate,
    write_smiles,
)

import _oracles as reference
from _molbuild import CURATED_SMILES, aromatic_system, permuted_copy, random_molgraph
from _oracles import with_flaky_probability


def test_single_atom():
    mol = parse_smiles("C")
    assert len(mol.atoms) == 1
    assert len(mol.bonds) == 0


def test_kekule_benzene_counts():
    mol = parse_smiles("C1=CC=CC=C1")
    assert len(mol.atoms) == 6
    assert len(mol.bonds) == 6
    orders = sorted(b.order for b in mol.bonds)
    assert orders == [SINGLE] * 3 + [DOUBLE] * 3


def test_pentavalent_carbon_rejected():
    with pytest.raises(ValenceError, match="atom 0"):
        parse_smiles("C(C)(C)(C)(C)C")


def test_unmatched_ring_digit():
    with pytest.raises(RingError, match="digit 1"):
        parse_smiles("C1CC")


def test_fragment_rejected():
    with pytest.raises(FragmentError):
        parse_smiles("CCO.C")


@pytest.mark.parametrize(
    "text,error",
    [
        ("", SmilesSyntaxError),
        ("   ", SmilesSyntaxError),
        ("C)C", SmilesSyntaxError),
        ("C(C", SmilesSyntaxError),
        ("C=", SmilesSyntaxError),
        ("C==C", SmilesSyntaxError),
        ("=C", SmilesSyntaxError),
        ("(C)C", SmilesSyntaxError),
        ("1CC1", SmilesSyntaxError),
        ("[Xe]", SmilesSyntaxError),
        ("[13CH4]", SmilesSyntaxError),
        ("[C", SmilesSyntaxError),
        ("C%1", SmilesSyntaxError),
        ("Cx", SmilesSyntaxError),
        ("C1CCCCC١", SmilesSyntaxError),  # non-ASCII digits are not ring numbers
        ("C%١٢CCCCC%12", SmilesSyntaxError),
        ("[CH٤]", SmilesSyntaxError),  # nor hydrogen counts
        ("C²CC", SmilesSyntaxError),
        ("[CH4\n]", SmilesSyntaxError),
        ("\u3000CCO", SmilesSyntaxError),  # only ASCII whitespace is stripped
        ("\u00a0CCO", SmilesSyntaxError),
        ("CCO\x1c", SmilesSyntaxError),
        ("C11", RingError),
        ("C1C1", RingError),
        ("C-1CCCCC=1", RingError),
        ("cc", KekulizeError),
        ("Cc1ccccc1c", KekulizeError),
        ("C#O", ValenceError),
        ("[CH5]", ValenceError),
        ("[Br]", ValenceError),
    ],
)
def test_error_classes(text, error):
    with pytest.raises(error):
        parse_smiles(text)


def test_ring_closures_beyond_the_writers_99_digits_are_refused():
    phenyls = parse_smiles("c1ccc(cc1)" * 99 + "C")
    assert len(phenyls.bonds) - len(phenyls.atoms) + 1 == 99
    with pytest.raises(RingError, match="100 ring closures"):
        parse_smiles("c1ccc(cc1)" * 100 + "C")


def test_ring_bond_symbol_on_either_end():
    assert canonical_form(parse_smiles("C=1CCCCC=1")) == canonical_form(
        parse_smiles("C=1CCCCC1")
    )


def test_validate_simple():
    assert validate(parse_smiles("CC")).valid


def test_validate_carbon_monoxide_neutral():
    mol = MolGraph((Atom("C"), Atom("O")), (Bond(0, 1, 3),))
    report = validate(mol)
    assert not report.valid
    assert any(rule == "valence" and idx == 1 for idx, rule, _ in report.violations)


def test_validate_ammonium():
    mol = parse_smiles("[NH4+]")
    assert validate(mol).valid
    assert mol.atoms[0].formal_charge == 1
    assert hydrogen_counts(mol) == (4,)


def test_validate_disconnected_graph():
    mol = MolGraph((Atom("C"), Atom("C")), ())
    report = validate(mol)
    assert not report.valid
    assert report.violations[0][1] == "disconnected"
    # The first atom unreachable from atom 0 is named, once.
    chain_and_stray = MolGraph((Atom("C"),) * 3, (Bond(0, 2),))
    assert validate(chain_and_stray).violations == ((1, "disconnected", "atom unreachable from atom 0"),)
    assert validate(MolGraph((), ())).violations == ((-1, "empty", "molecule has no atoms"),)


def test_validity_report_iff_violations():
    for text in ("CC", "c1ccccc1", "CS(=O)(=O)N"):
        report = validate(parse_smiles(text))
        assert report.valid == (not report.violations)


def test_charged_valences():
    assert validate(parse_smiles("C[N+](C)(C)C")).valid
    assert validate(parse_smiles("CC(=O)[O-]")).valid
    with pytest.raises(ValenceError):
        parse_smiles("C[O-]C")  # charged oxygen limited to one bond


def test_aromatic_hydrogen_counts():
    benzene = parse_smiles("c1ccccc1")
    assert hydrogen_counts(benzene) == (1,) * 6
    pyridine = parse_smiles("c1ccncc1")
    n_index = next(i for i, a in enumerate(pyridine.atoms) if a.element == "N")
    assert hydrogen_counts(pyridine)[n_index] == 0
    pyrrole = parse_smiles("c1cc[nH]c1")
    n_index = next(i for i, a in enumerate(pyrrole.atoms) if a.element == "N")
    assert hydrogen_counts(pyrrole)[n_index] == 1


def test_bond_orders_count_single_when_kekulization_fails():
    ring = MolGraph(
        tuple(Atom("C", aromatic=True) for _ in range(5)),
        tuple(Bond(i, (i + 1) % 5, AROMATIC) for i in range(5)),
    )
    assert any(rule == "kekulize" for _, rule, _ in validate(ring).violations)
    assert hydrogen_counts(ring) == (2,) * 5
    assert free_valence(ring, 0) == 2
    benzene = parse_smiles("c1ccccc1")
    assert free_valence(benzene, 0) == 1  # one resolved double bond


def test_stereo_tags_parsed_and_ignored():
    mol = parse_smiles("N[C@@H](C)C(=O)O")
    plain = parse_smiles("NC(C)C(=O)O")
    # Canonical form must not depend on stereo (fingerprints ignore it too);
    # the bracket H keeps the atom token distinct, so compare the skeleton.
    assert len(mol.atoms) == len(plain.atoms)
    # Stereo marks are discarded: the graphs equal their unmarked spellings.
    assert mol == parse_smiles("N[CH](C)C(=O)O")
    assert parse_smiles("F/C=C/F") == parse_smiles("F-C=C-F")


def test_biphenyl_without_dash_is_single_link():
    mol = parse_smiles("c1ccccc1c1ccccc1")
    singles = [b for b in mol.bonds if b.order == SINGLE]
    assert len(singles) == 1
    assert canonical_form(mol) == canonical_form(parse_smiles("c1ccc(-c2ccccc2)cc1"))


def test_write_round_trip_examples():
    for text in ("CCO", "C1=CC=CC=C1"):
        mol = parse_smiles(text)
        assert canonical_form(parse_smiles(write_smiles(mol))) == canonical_form(mol)


def test_write_round_trip_random_500():
    rng = random.Random(20260809)
    for _ in range(500):
        mol = random_molgraph(rng)
        again = parse_smiles(write_smiles(mol))
        assert canonical_form(again) == canonical_form(mol)


def test_canonical_same_graph_different_traversal():
    assert canonical_form(parse_smiles("OCC")) == canonical_form(parse_smiles("CCO"))


def test_canonical_permutation_sweep():
    rng = random.Random(4)
    mol = random_molgraph(rng, n_min=15, n_max=15)
    prng = random.Random(99)
    forms = {canonical_form(permuted_copy(mol, prng)) for _ in range(100)}
    assert len(forms) == 1


def test_canonical_single_carbon():
    text = canonical_form(parse_smiles("C"))
    mol = parse_smiles(text)
    assert len(mol.atoms) == 1 and mol.atoms[0].element == "C"


def test_canonical_idempotent_on_corpus():
    for text in CURATED_SMILES:
        canon = canonical_form(parse_smiles(text))
        assert canonical_form(parse_smiles(canon)) == canon


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_canonical_form_round_trips_and_ignores_labels(seed):
    # A campaign step starts from the parsed canonical string of the previous
    # winner and does not canonicalize it again, which needs both invariants
    # on leads and on every builtin tool's edits.
    rng = random.Random(seed)
    mol = random_molgraph(rng)
    graphs = [mol]
    for builtin in tl.builtin_toolset():
        spec = with_flaky_probability(builtin, 0.0)
        instruction = tl.build_instruction(spec, seed % 6, ev.builtin_property("plogp"))
        graphs.append(tl.simulated_tool_step(spec.kind, mol, instruction, seed))
    for graph in graphs:
        canon = canonical_form(graph)
        assert canonical_form(parse_smiles(canon)) == canon
        assert canonical_form(permuted_copy(graph, rng)) == canon


def test_ring_digit_reuse_parses():
    mol = parse_smiles("CN(C)CCOC(c1ccccc1)c1ccccc1")
    assert sum(a.aromatic for a in mol.atoms) == 12


def test_percent_ring_digits():
    assert canonical_form(parse_smiles("C%10CCCC%10")) == canonical_form(
        parse_smiles("C1CCCC1")
    )


def test_descriptors():
    benzene = parse_smiles("c1ccccc1")
    naphthalene = parse_smiles("c1ccc2ccccc2c1")
    assert largest_ring_size(benzene) == 6
    assert largest_ring_size(naphthalene) == 6
    assert largest_ring_size(parse_smiles("CCCC")) == 0
    assert largest_ring_size(parse_smiles("C1CCCCCCC1")) == 8
    assert aromatic_ring_count(benzene) == 1
    assert aromatic_ring_count(naphthalene) == 2
    assert aromatic_ring_count(parse_smiles("CCCC")) == 0
    assert ev.descriptors(parse_smiles("CCO"), "qed").hetero_fraction == pytest.approx(1 / 3)


def test_free_valence():
    mol = parse_smiles("CC(=O)O")
    assert free_valence(mol, 0) == 3  # methyl carbon
    carbonyl = 1
    assert free_valence(mol, carbonyl) == 0


def test_structural_invariants_enforced():
    with pytest.raises(ValueError):
        Bond(2, 2)
    with pytest.raises(ValueError):
        MolGraph((Atom("C"), Atom("C")), (Bond(0, 1), Bond(1, 0)))
    with pytest.raises(ValueError):
        MolGraph((Atom("C"),), (Bond(0, 1),))
    with pytest.raises(ValueError):
        Atom("Q")


def test_curated_corpus_parses_and_validates():
    for text in CURATED_SMILES:
        assert validate(parse_smiles(text)).valid, text


# Plain, aromatic, charged and explicit-hydrogen atoms, so that random bonds
# between them reach every violation rule.
_ATOM_POOL = (
    Atom("C"),
    Atom("N"),
    Atom("O"),
    Atom("S"),
    Atom("P"),
    Atom("Cl"),
    Atom("C", explicit_h=2),
    Atom("N", formal_charge=1),
    Atom("O", formal_charge=-1),
    Atom("C", aromatic=True),
    Atom("N", aromatic=True),
    Atom("N", aromatic=True, explicit_h=1),
    Atom("O", aromatic=True),
    Atom("S", aromatic=True),
    Atom("B", aromatic=True),
)


@st.composite
def _any_graph(draw) -> MolGraph:
    """Pool atoms with random bonds: often disconnected or aromatic-invalid."""
    atoms = draw(st.lists(st.sampled_from(_ATOM_POOL), max_size=14))
    pairs = [(a, b) for b in range(len(atoms)) for a in range(b)]
    orders = st.sampled_from((SINGLE, SINGLE, DOUBLE, TRIPLE, AROMATIC, AROMATIC, AROMATIC))
    bonds = draw(st.dictionaries(st.sampled_from(pairs), orders, max_size=2 * len(atoms))) if pairs else {}
    return MolGraph(tuple(atoms), tuple(Bond(a, b, order) for (a, b), order in sorted(bonds.items())))


_DISCONNECTED_ONLY = MolGraph((Atom("C"),) * 3, (Bond(0, 2),))


@settings(max_examples=400, deadline=None)
@given(
    mol=st.integers(0, 2**32 - 1).map(lambda seed: random_molgraph(random.Random(seed), 1, 30))
    | st.integers(0, 2**32 - 1).map(lambda seed: aromatic_system(random.Random(seed), 1 + seed % 4))
    | _any_graph(),
    relabel=st.none() | st.integers(0, 2**32 - 1),
)
@example(mol=MolGraph((), ()), relabel=None)
@example(mol=_DISCONNECTED_ONLY, relabel=None)
@example(mol=_DISCONNECTED_ONLY, relabel=1)
def test_one_pass_equals_the_reference_perception(mol, relabel):
    if relabel is not None:
        mol = permuted_copy(mol, random.Random(relabel))
    fresh = MolGraph(mol.atoms, mol.bonds)  # the reference caches under its own keys
    assert validate(mol) == reference._check_validity(fresh)
    assert ring_bond_flags(mol) == reference.ring_bond_flags(fresh)
    assert ring_atom_flags(mol) == reference.ring_atom_flags(fresh)
    assert bond_order_sums(mol) == reference.bond_order_sums(fresh)
    assert hydrogen_counts(mol) == reference.hydrogen_counts(fresh)
    assert set(mol._cache) <= {"adj", "perception", "hcounts"}


def test_one_cache_entry_per_concept():
    mol = parse_smiles("CC(=O)Nc1ccc(O)cc1")
    validate(mol)
    canonical_form(mol)
    morgan_fp(mol)
    assert set(mol._cache) == {"adj", "perception", "hcounts", "canonical", "fingerprint"}


# -- memos and interned values --------------------------------------------------------


def test_hydrogen_counts_follow_the_valence_table_for_every_key():
    # Every element, every charge in and around the charged table, no or an
    # explicit hydrogen count, and every bond-order sum up to past the
    # largest valence; one process fills the table in this order.
    mg._implicit_hydrogens.cache_clear()
    for element in ALLOWED_VALENCE:
        for charge in range(-3, 4):
            for explicit_h in (None, 0, 1, 2, 3, 4):
                for bondsum in range(9):
                    centre = Atom(element, formal_charge=charge, explicit_h=explicit_h)
                    mol = MolGraph(
                        (centre,) + (Atom("F"),) * bondsum,
                        tuple(Bond(0, k, SINGLE) for k in range(1, bondsum + 1)),
                    )
                    expected = reference.hydrogen_counts(MolGraph(mol.atoms, mol.bonds))
                    assert hydrogen_counts(mol) == expected, (element, charge, explicit_h, bondsum)


@settings(max_examples=100)
@given(
    text=st.sampled_from(CURATED_SMILES)
    | st.integers(0, 2**32 - 1).map(lambda seed: write_smiles(random_molgraph(random.Random(seed), 1, 40)))
)
def test_two_parses_give_equal_equally_hashed_bonds_and_graphs(text):
    mg._bond.cache_clear()
    first = parse_smiles(text)
    second = parse_smiles(text)
    mg._bond.cache_clear()
    third = parse_smiles(text)
    made = tuple(Bond(bond.a, bond.b, bond.order) for bond in first.bonds)
    for other in (second, third):
        assert other.bonds == first.bonds == made
        assert hash(other.bonds) == hash(first.bonds) == hash(made)
        assert other == first and hash(other) == hash(first)
    # Bonds are interned while the memo holds them.
    assert all(a is b for a, b in zip(first.bonds, second.bonds))


def test_memos_are_bounded_by_their_module_constants():
    rng = random.Random(5)
    for _ in range(200):
        morgan_fp(parse_smiles(write_smiles(random_molgraph(rng, 1, 40))))
    for memo, bound in (
        (mg._bond, mg.BOND_MEMO_SIZE),
        (mg._implicit_hydrogens, mg.HYDROGEN_MEMO_SIZE),
        (fingerprint._hash_recurring, fingerprint.INVARIANT_MEMO_SIZE),
        (fingerprint._hash_environment_recurring, fingerprint.ENVIRONMENT_MEMO_SIZE),
    ):
        info = memo.cache_info()
        assert info.maxsize == bound
        assert 0 < info.currsize <= bound
