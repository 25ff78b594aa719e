import random

import pytest

from leadopt.fingerprint import (
    NBITS,
    Fingerprint,
    InvalidMoleculeError,
    morgan_fp,
    tanimoto,
)
from leadopt.molgraph import Atom, MolGraph, parse_smiles

from _molbuild import permuted_copy, random_molgraph


def bits_fp(bit_positions):
    value = 0
    for position in bit_positions:
        value |= 1 << position
    return Fingerprint(value)


def test_single_carbon_popcount():
    assert morgan_fp(parse_smiles("C")).popcount() == 1


def test_ethane_popcount():
    # One radius-0 identifier (both atoms equivalent) plus one radius-1
    # identifier; radius 2 duplicates the radius-1 environment.
    assert morgan_fp(parse_smiles("CC")).popcount() == 2


def test_benzene_popcount_bounded():
    assert morgan_fp(parse_smiles("c1ccccc1")).popcount() <= 3


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
    with pytest.raises(InvalidMoleculeError):
        morgan_fp(broken)


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
        assert morgan_fp(random_molgraph(rng)).popcount() >= 1


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
