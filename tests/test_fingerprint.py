"""Fingerprint kernels against the reference implementation they replaced.

``morgan_fp`` and ``tanimoto`` must give exactly the bits and values of the
original kernels, kept below as ``_reference_morgan_fp`` and
``_reference_tanimoto``, so that every stored fingerprint and every result
byte stays the same.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadopt import fingerprint
from leadopt.fingerprint import (
    NBITS,
    RADIUS,
    Fingerprint,
    InvalidMoleculeError,
    morgan_fp,
    tanimoto,
)
from leadopt.molgraph import (
    Atom,
    MolGraph,
    hydrogen_counts,
    neighbors,
    parse_smiles,
    ring_atom_flags,
    validate,
)

from _molbuild import CURATED_SMILES, loose_hex_spellings, permuted_copy, random_molgraph

_MASK = (1 << 64) - 1
_ATOMIC_NUMBER = {
    "B": 5, "C": 6, "N": 7, "O": 8, "F": 9,
    "P": 15, "S": 16, "Cl": 17, "Br": 35, "I": 53,
}


def _reference_mix64(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def _reference_hash_ints(values) -> int:
    acc = 0x9E3779B97F4A7C15
    for value in values:
        acc = _reference_mix64(acc ^ ((value + 0x165667B19E3779F9) & _MASK))
    return acc


def _reference_morgan_fp(mol: MolGraph) -> int:
    """The bit field of the original kernel: frozenset environments, one sort."""
    assert validate(mol).valid
    hydrogens = hydrogen_counts(mol)
    ring = ring_atom_flags(mol)
    adj = neighbors(mol)
    ids = [
        _reference_hash_ints(
            (
                _ATOMIC_NUMBER[atom.element],
                len(adj[i]),
                atom.formal_charge + 8,
                hydrogens[i],
                int(atom.aromatic),
                int(ring[i]),
            )
        )
        for i, atom in enumerate(mol.atoms)
    ]
    features = [(0, ids[i], i, frozenset((i,)), frozenset()) for i in range(len(mol.atoms))]
    env_atoms = [frozenset((i,)) for i in range(len(mol.atoms))]
    env_bonds = [frozenset() for _ in mol.atoms]
    for r in range(1, RADIUS + 1):
        new_ids, new_env_atoms, new_env_bonds = [], [], []
        for i in range(len(mol.atoms)):
            pairs = sorted((mol.bonds[bi].order, ids[j]) for j, bi in adj[i])
            flat = [r, ids[i]]
            for order, neighbor_id in pairs:
                flat.append(order)
                flat.append(neighbor_id)
            new_ids.append(_reference_hash_ints(flat))
            atoms_r = set(env_atoms[i])
            bonds_r = set(env_bonds[i])
            for j, bi in adj[i]:
                atoms_r.update(env_atoms[j])
                bonds_r.update(env_bonds[j])
                bonds_r.add(bi)
            new_env_atoms.append(frozenset(atoms_r))
            new_env_bonds.append(frozenset(bonds_r))
        ids, env_atoms, env_bonds = new_ids, new_env_atoms, new_env_bonds
        features.extend((r, ids[i], i, env_atoms[i], env_bonds[i]) for i in range(len(mol.atoms)))
    bits = 0
    seen = set()
    for _, identifier, _, atoms_set, bonds_set in sorted(features, key=lambda f: (f[0], f[1], f[2])):
        key = (atoms_set, bonds_set)
        if key in seen:
            continue
        seen.add(key)
        bits |= 1 << (identifier % NBITS)
    return bits


def _reference_tanimoto(a: int, b: int) -> float:
    union = bin(a | b).count("1")
    if union == 0:
        return 0.0
    return bin(a & b).count("1") / union


def bits_fp(bit_positions):
    value = 0
    for position in bit_positions:
        value |= 1 << position
    return Fingerprint(value)


def test_single_carbon_popcount():
    assert morgan_fp(parse_smiles("C")).bits.bit_count() == 1


def test_ethane_popcount():
    # One radius-0 identifier (both atoms equivalent) plus one radius-1
    # identifier; radius 2 duplicates the radius-1 environment.
    assert morgan_fp(parse_smiles("CC")).bits.bit_count() == 2


def test_benzene_popcount_bounded():
    assert morgan_fp(parse_smiles("c1ccccc1")).bits.bit_count() <= 3


def test_tanimoto_formula():
    assert tanimoto(bits_fp({1, 2, 3}), bits_fp({2, 3, 4})) == pytest.approx(0.5)


def test_tanimoto_identity_and_disjoint():
    fp = morgan_fp(parse_smiles("CCO"))
    assert tanimoto(fp, fp) == 1.0
    assert tanimoto(bits_fp({1}), bits_fp({2})) == 0.0


def test_tanimoto_empty_convention():
    assert tanimoto(bits_fp(set()), bits_fp(set())) == 0.0


def test_invalid_molecule_rejected():
    broken = MolGraph((Atom("C"), Atom("C")), ())  # disconnected
    for _ in range(3):
        with pytest.raises(InvalidMoleculeError):
            morgan_fp(broken)
    assert "fingerprint" not in broken._cache


def test_symmetry_identity_range_randomized():
    rng = random.Random(31)
    for _ in range(200):
        a = morgan_fp(random_molgraph(rng))
        b = morgan_fp(random_molgraph(rng))
        ab = tanimoto(a, b)
        assert ab == tanimoto(b, a)
        assert 0.0 <= ab <= 1.0
        assert tanimoto(a, a) == 1.0


def test_isomorphism_invariance():
    rng = random.Random(8)
    prng = random.Random(9)
    for _ in range(50):
        mol = random_molgraph(rng)
        reference = morgan_fp(mol)
        shuffled = morgan_fp(permuted_copy(mol, prng))
        assert shuffled == reference


def test_popcount_positive_for_valid_molecule():
    rng = random.Random(3)
    for _ in range(30):
        assert morgan_fp(random_molgraph(rng)).bits.bit_count() >= 1


def test_hex_round_trip():
    fp = morgan_fp(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"))
    text = fp.to_hex()
    assert len(text) == 2048 // 4
    assert text == text.lower()
    assert Fingerprint.from_hex(text) == fp
    with pytest.raises(ValueError):
        Fingerprint.from_hex(text[:-1])


def test_nbits_validation():
    with pytest.raises(ValueError):
        Fingerprint(-1)
    with pytest.raises(ValueError):
        Fingerprint(1 << NBITS)


def test_stereo_excluded_from_invariants():
    with_tag = morgan_fp(parse_smiles("F/C=C/F"))
    without = morgan_fp(parse_smiles("FC=CF"))
    assert with_tag == without


# -- the kernels against the reference ------------------------------------------------

# The benchmark's star groups on its ring and chain cores, and cages whose
# environments coincide across radii.
STAR_LEADS = tuple(
    core.format(*(star,) * core.count("{}"))
    for core in (
        "c1cc({})ccc1{}",
        "c1c({})cccc1{}",
        "C1CC({})CCC1{}",
        "C({})CCCC{}",
        "c1c({})cc({})cc1{}",
        "c1c({})cc({})nc1{}",
        "C1C({})CC({})CC1{}",
        "C({})CC({})CC{}",
        "c1c({})c({})cc({})c1{}",
    )
    for star in ("C(C)(C)C", "C(F)(F)F", "C(Cl)(Cl)Cl")
) + ("C12C3C1C23", "C12C3C4C1C5C2C3C45", "C1C2CC3CC1CC(C2)C3", "N12CCN(CC1)CC2")

# Bracket, charged and explicit-hydrogen atoms, and every one- and two-atom
# molecule shape the environment key has to get right.
SMALL_AND_BRACKET = (
    "C", "N", "O", "S", "Cl", "[CH4]", "[NH3]", "[OH2]", "[NH4+]", "[OH-]",
    "CC", "CO", "C=O", "C#N", "C=C", "N#N", "[CH3][CH3]", "C[O-]", "C[NH3+]", "[CH2]=O",
    "[CH3]CC", "OC[NH2]", "C[N+](C)(C)C", "CC(=O)[O-]", "[O-][N+](=O)c1ccccc1",
    "c1cc[nH]c1", "Cn1ccnc1", "CS(=O)(=O)N", "OP(=O)(O)O", "OB(O)c1ccccc1",
)


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(5, 40))
def test_kernel_matches_reference_on_random_graphs(seed, n_max):
    # Each graph is fingerprinted first with every memo empty, then again,
    # as a fresh molecule, with the memos holding its own environments.
    mol = random_molgraph(random.Random(seed), n_max=n_max)
    relabelled = permuted_copy(mol, random.Random(seed))
    for graph in (mol, relabelled):
        expected = _reference_morgan_fp(graph)
        fingerprint._hash_recurring.cache_clear()
        fingerprint._hash_environment_recurring.cache_clear()
        assert morgan_fp(MolGraph(graph.atoms, graph.bonds)).bits == expected
        assert morgan_fp(MolGraph(graph.atoms, graph.bonds)).bits == expected


@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_reference_on_stars_brackets_and_small_molecules(seed):
    rng = random.Random(seed)
    for smiles in STAR_LEADS + SMALL_AND_BRACKET + CURATED_SMILES:
        mol = parse_smiles(smiles)
        relabelled = permuted_copy(mol, rng)
        assert morgan_fp(mol).bits == _reference_morgan_fp(mol), smiles
        assert morgan_fp(relabelled).bits == _reference_morgan_fp(relabelled), smiles


bit_fields = st.one_of(
    st.integers(0, (1 << NBITS) - 1),
    st.sets(st.integers(0, NBITS - 1), max_size=64).map(lambda bits: sum(1 << b for b in bits)),
)


@settings(max_examples=300)
@given(a=bit_fields, b=bit_fields)
@example(a=0, b=0)
@example(a=(1 << NBITS) - 1, b=(1 << NBITS) - 1)
@example(a=0, b=(1 << NBITS) - 1)
@example(a=1 << (NBITS - 1), b=1)
def test_tanimoto_and_popcount_match_reference(a, b):
    fa, fb = Fingerprint(a), Fingerprint(b)
    assert tanimoto(fa, fb) == _reference_tanimoto(a, b)
    assert fa.bits.bit_count() == bin(a).count("1")
    assert fb.bits.bit_count() == bin(b).count("1")


def test_fingerprint_is_computed_once_per_molecule():
    mol = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    first = morgan_fp(mol)
    assert morgan_fp(mol) is first
    # Equal molecules parsed apart have their own memo and the same bits.
    assert morgan_fp(parse_smiles("CC(=O)Oc1ccccc1C(=O)O")) == first


# -- the persisted form -----------------------------------------------------------------


def test_from_hex_accepts_only_lowercase_fixed_width_digits():
    text = morgan_fp(parse_smiles("CC(C)Cc1ccc(C(C)C(=O)O)cc1")).to_hex()
    for name, spelling in loose_hex_spellings(text).items():
        assert int(spelling.replace("\u0660", "0"), 16) == int(text, 16), name
        with pytest.raises(ValueError, match="lowercase hex digits"):
            Fingerprint.from_hex(spelling)
    for wrong in ("", text + "0", "g" + text[1:]):
        with pytest.raises(ValueError):
            Fingerprint.from_hex(wrong)
    assert Fingerprint.from_hex(text).to_hex() == text
