"""Canonical ranking: the pruned, cell-local search against the unpruned one.

``canonical_ranks`` refines only the cells next to relabelled atoms and
skips tied atoms that an automorphism maps onto an explored one. Neither
may change a single rank, so every canonical string, seed and result byte
stays what the exhaustive search gave. The reference search below is that
exhaustive search, with its own whole-graph refinement over dense ranks.
"""

import hashlib
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadopt import molgraph as mg
from leadopt.molgraph import Atom, Bond, MolGraph, canonical_form, canonical_ranks, parse_smiles

from _molbuild import permuted_copy, random_molgraph


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(mol: MolGraph, ranks: list[int]) -> list[int]:
    """Re-rank every atom by its rank and its neighbours' until no class splits."""
    adj = mg.neighbors(mol)
    n_classes = len(set(ranks))
    while True:
        keys = [
            (
                ranks[i],
                tuple(sorted((mol.bonds[bi].order, ranks[j]) for j, bi in adj[i])),
            )
            for i in range(len(mol.atoms))
        ]
        new_ranks = _dense_ranks(keys)
        new_classes = len(set(new_ranks))
        if new_classes == n_classes:
            return new_ranks
        ranks, n_classes = new_ranks, new_classes


def _unpruned_ranks(mol: MolGraph) -> tuple[int, ...]:
    """Try every tied atom at every level; keep the first smallest leaf."""
    initial = mg._initial_keys(mol)

    def solve(ranks):
        ranks = _refine(mol, ranks)
        classes = {}
        for i, rank in enumerate(ranks):
            classes.setdefault(rank, []).append(i)
        tied = sorted(rank for rank, members in classes.items() if len(members) > 1)
        if not tied:
            return mg._signature(mol, ranks, initial), ranks
        best = None
        for atom in classes[tied[0]]:
            keys = [(ranks[i], 0 if i == atom else 1) for i in range(len(ranks))]
            candidate = solve(_dense_ranks(keys))
            if best is None or candidate[0] < best[0]:
                best = candidate
        return best

    return tuple(solve(_dense_ranks(initial))[1])


# Substituents: the benchmark's stars, single atoms, and bracket atoms whose
# written hydrogens must not be confused with a plain atom of the same keys.
ATOMS = ("C", "F", "Cl", "[CH3]", "[NH2]", "[OH]")
SUBSTITUENTS = ("C(C)(C)C", "C(F)(F)F", "C(Cl)(Cl)Cl", "C([CH3])(C)C") + ATOMS
CAGES = (
    "C12C3C1C23",  # tetrahedrane
    "C12C3C1C4C2C34",  # prismane
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "CC12CC3(C)CC(C)(C1)CC(C)(C2)C3",  # tetramethyladamantane
    "C1N2CN3CN1CN(C2)C3",  # hexamine
    "N12CCN(CC1)CC2",  # DABCO
    "C1CC2CCC1CC2",  # bicyclo[2.2.2]octane
)
MAX_ATOMS = 16


def _substituted(core: list[str], slots: list[int], subs: list[str]) -> str:
    return "".join(
        token + "".join(f"({sub})" for sub in subs[: slots[pos]])
        for pos, token in enumerate(core)
    )


@st.composite
def symmetric_smiles(draw) -> str:
    """Stars on ring and chain cores, small dendrimers, cages."""
    kind = draw(st.sampled_from(("ring", "aromatic", "chain", "dendrimer", "cage")))
    if kind == "cage":
        return draw(st.sampled_from(CAGES))
    pool = ATOMS if kind == "dendrimer" else SUBSTITUENTS
    if draw(st.booleans()):
        subs = [draw(st.sampled_from(pool))] * 3
    else:
        subs = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))
    if kind == "dendrimer":
        # A centre with two or three arms, each a carbon carrying three atoms.
        arm = "C" + "".join(f"({sub})" for sub in subs[:2]) + subs[2]
        return "C" + f"({arm})" * draw(st.integers(1, 2)) + arm
    if kind == "ring":
        size = draw(st.integers(3, 6))
        core = ["C1"] + ["C"] * (size - 2) + ["C1"]
        per_atom = 2
    elif kind == "aromatic":
        core = ["c1", "c", "c", "c", "c", "c1"]
        if draw(st.booleans()):
            core[3] = "n"
        per_atom = 1
    else:
        core = ["C"] * draw(st.integers(1, 5))
        per_atom = 2
    slots = [draw(st.integers(0, per_atom)) if token != "n" else 0 for token in core]
    smiles = _substituted(core, slots, subs)
    # Drop substituents from the end until the graph fits the reference search.
    for pos in reversed(range(len(core))):
        while slots[pos] and len(parse_smiles(smiles).atoms) > MAX_ATOMS:
            slots[pos] -= 1
            smiles = _substituted(core, slots, subs)
    return smiles


def _cubic_carbon_graph(n: int, rng: random.Random) -> MolGraph:
    """A random connected 3-regular all-carbon graph on n atoms.

    Refinement cannot split a regular graph, and most such graphs have few
    automorphisms, so tied classes are not orbits: the search must explore
    branches that lead to different signatures and prune only true images.
    """
    while True:
        stubs = [atom for atom in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) < len(stubs) // 2 or any(a == b for a, b in pairs):
            continue
        mol = MolGraph(tuple(Atom("C") for _ in range(n)), tuple(Bond(a, b) for a, b in sorted(pairs)))
        if mg.validate(mol).valid:
            return mol


def _assert_pruned_search_matches_unpruned(mol: MolGraph, seed: int) -> None:
    relabelled = permuted_copy(mol, random.Random(seed))
    assert canonical_ranks(mol) == _unpruned_ranks(mol)
    assert canonical_ranks(relabelled) == _unpruned_ranks(relabelled)
    assert canonical_form(relabelled) == canonical_form(mol)


@settings(max_examples=60)
@given(smiles=symmetric_smiles(), seed=st.integers(0, 2**32 - 1))
def test_pruned_search_matches_unpruned_on_symmetric_graphs(smiles, seed):
    mol = parse_smiles(smiles)
    assert len(mol.atoms) <= MAX_ATOMS
    _assert_pruned_search_matches_unpruned(mol, seed)


@settings(max_examples=30)
@given(n=st.sampled_from((8, 10, 12, 14)), seed=st.integers(0, 2**32 - 1))
def test_pruned_search_matches_unpruned_on_regular_graphs(n, seed):
    _assert_pruned_search_matches_unpruned(_cubic_carbon_graph(n, random.Random(seed)), seed)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1))
def test_cell_local_refinement_matches_the_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    mol = random_molgraph(rng)
    relabelled = permuted_copy(mol, rng)
    assert canonical_ranks(mol) == _unpruned_ranks(mol)
    assert canonical_ranks(relabelled) == _unpruned_ranks(relabelled)


def test_a_lone_leaf_needs_no_signature(monkeypatch):
    # When refinement alone splits every cell, nothing is individualized,
    # and the one leaf has no other leaf to be compared with.
    signature = mg._signature
    for text, searched in (("CCO", False), ("CC(C)(C)c1ccc(cc1)C(C)(C)C", True)):
        mol = parse_smiles(text)
        expected = _unpruned_ranks(mol)
        calls = []

        def counting_signature(*args):
            calls.append(args)
            return signature(*args)

        monkeypatch.setattr(mg, "_signature", counting_signature)
        assert canonical_ranks(mol) == expected
        monkeypatch.setattr(mg, "_signature", signature)
        assert bool(calls) == searched, text


@pytest.mark.parametrize("rings", [2, 10, 40, 99])
def test_linked_phenyls_canonicalize_in_bounded_time(rings):
    # Each ring flips on its own, so the search individualizes about
    # rings**2 / 2 times; re-sorting every atom in every round took about
    # 19 s of process time on 99 rings, re-sorting only the touched cells
    # about 1 s.
    mol = parse_smiles("c1ccc(cc1)" * rings + "C")
    relabelled = permuted_copy(mol, random.Random(rings))
    start = time.process_time()
    form = canonical_form(mol)
    elapsed = time.process_time() - start
    assert canonical_form(relabelled) == form
    assert len(parse_smiles(form).atoms) == 6 * rings + 1
    assert elapsed < 10.0


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("[CH3]CC", "CC[CH3]"),
        ("CC[CH3]", "CC[CH3]"),
        ("OC[NH2]", "C([NH2])O"),
        ("[NH2]CO", "C([NH2])O"),
    ],
)
def test_bracket_atoms_do_not_depend_on_labels(text, canonical):
    assert canonical_form(parse_smiles(text)) == canonical


# Canonical strings of the benchmark's 27 star leads (9 cores x 3 stars) and
# of a 21-atom tetra-neopentyl graph, as the exhaustive search wrote them.
GOLDEN = [
    ("c1cc(C(Cl)(Cl)Cl)ccc1C(Cl)(Cl)Cl", "c(cc(cc1)C(Cl)(Cl)Cl)c1C(Cl)(Cl)Cl"),
    ("c1cc(C(F)(F)F)ccc1C(F)(F)F", "c(cc(cc1)C(F)(F)F)c1C(F)(F)F"),
    ("c1cc(C(C)(C)C)ccc1C(C)(C)C", "CC(C)(C)c(ccc(c1)C(C)(C)C)c1"),
    ("c1c(C(Cl)(Cl)Cl)cccc1C(Cl)(Cl)Cl", "c(cc(cc1C(Cl)(Cl)Cl)C(Cl)(Cl)Cl)c1"),
    ("c1c(C(F)(F)F)cccc1C(F)(F)F", "c(cc(cc1C(F)(F)F)C(F)(F)F)c1"),
    ("c1c(C(C)(C)C)cccc1C(C)(C)C", "CC(C)(C)c(cccc1C(C)(C)C)c1"),
    ("C1CC(C(Cl)(Cl)Cl)CCC1C(Cl)(Cl)Cl", "C(CC(CC1)C(Cl)(Cl)Cl)C1C(Cl)(Cl)Cl"),
    ("C1CC(C(F)(F)F)CCC1C(F)(F)F", "C(CC(CC1)C(F)(F)F)C1C(F)(F)F"),
    ("C1CC(C(C)(C)C)CCC1C(C)(C)C", "CC(C)(C)C(CCC(C1)C(C)(C)C)C1"),
    ("C(C(Cl)(Cl)Cl)CCCC(Cl)(Cl)Cl", "C(CCC(Cl)(Cl)Cl)CC(Cl)(Cl)Cl"),
    ("C(C(F)(F)F)CCCC(F)(F)F", "C(CCC(F)(F)F)CC(F)(F)F"),
    ("C(C(C)(C)C)CCCC(C)(C)C", "CC(C)(C)CCCCC(C)(C)C"),
    (
        "c1c(C(Cl)(Cl)Cl)cc(C(Cl)(Cl)Cl)cc1C(Cl)(Cl)Cl",
        "c(c(cc(c1)C(Cl)(Cl)Cl)C(Cl)(Cl)Cl)c1C(Cl)(Cl)Cl",
    ),
    ("c1c(C(F)(F)F)cc(C(F)(F)F)cc1C(F)(F)F", "c(c(cc(c1)C(F)(F)F)C(F)(F)F)c1C(F)(F)F"),
    ("c1c(C(C)(C)C)cc(C(C)(C)C)cc1C(C)(C)C", "CC(C)(C)c(cc(cc1C(C)(C)C)C(C)(C)C)c1"),
    (
        "c1c(C(Cl)(Cl)Cl)cc(C(Cl)(Cl)Cl)nc1C(Cl)(Cl)Cl",
        "c(c(cc(C(Cl)(Cl)Cl)n1)C(Cl)(Cl)Cl)c1C(Cl)(Cl)Cl",
    ),
    ("c1c(C(F)(F)F)cc(C(F)(F)F)nc1C(F)(F)F", "c(c(cc(C(F)(F)F)n1)C(F)(F)F)c1C(F)(F)F"),
    ("c1c(C(C)(C)C)cc(C(C)(C)C)nc1C(C)(C)C", "CC(C)(C)c(cc(C(C)(C)C)nc1C(C)(C)C)c1"),
    (
        "C1C(C(Cl)(Cl)Cl)CC(C(Cl)(Cl)Cl)CC1C(Cl)(Cl)Cl",
        "C(C(CC(C1)C(Cl)(Cl)Cl)C(Cl)(Cl)Cl)C1C(Cl)(Cl)Cl",
    ),
    ("C1C(C(F)(F)F)CC(C(F)(F)F)CC1C(F)(F)F", "C(C(CC(C1)C(F)(F)F)C(F)(F)F)C1C(F)(F)F"),
    ("C1C(C(C)(C)C)CC(C(C)(C)C)CC1C(C)(C)C", "CC(C)(C)C(CC(CC1C(C)(C)C)C(C)(C)C)C1"),
    ("C(C(Cl)(Cl)Cl)CC(C(Cl)(Cl)Cl)CC(Cl)(Cl)Cl", "C(CC(Cl)(Cl)Cl)C(CC(Cl)(Cl)Cl)C(Cl)(Cl)Cl"),
    ("C(C(F)(F)F)CC(C(F)(F)F)CC(F)(F)F", "C(CC(F)(F)F)C(CC(F)(F)F)C(F)(F)F"),
    ("C(C(C)(C)C)CC(C(C)(C)C)CC(C)(C)C", "CC(C)(C)CCC(CC(C)(C)C)C(C)(C)C"),
    (
        "c1c(C(Cl)(Cl)Cl)c(C(Cl)(Cl)Cl)cc(C(Cl)(Cl)Cl)c1C(Cl)(Cl)Cl",
        "c(c(c(cc1C(Cl)(Cl)Cl)C(Cl)(Cl)Cl)C(Cl)(Cl)Cl)c1C(Cl)(Cl)Cl",
    ),
    (
        "c1c(C(F)(F)F)c(C(F)(F)F)cc(C(F)(F)F)c1C(F)(F)F",
        "c(c(c(cc1C(F)(F)F)C(F)(F)F)C(F)(F)F)c1C(F)(F)F",
    ),
    (
        "c1c(C(C)(C)C)c(C(C)(C)C)cc(C(C)(C)C)c1C(C)(C)C",
        "CC(C)(C)c(cc(c(c1)C(C)(C)C)C(C)(C)C)c1C(C)(C)C",
    ),
    (
        "CC(C)(C)CC(CC(C)(C)C)(CC(C)(C)C)CC(C)(C)C",
        "CC(C)(C)CC(CC(C)(C)C)(CC(C)(C)C)CC(C)(C)C",
    ),
]


def test_golden_canonical_strings_are_unedited():
    # The table is the byte contract of every change to the canonicalizer:
    # a change that needs a new string here changes seeds and result bytes.
    digest = hashlib.sha256(json.dumps(GOLDEN).encode()).hexdigest()
    assert (len(GOLDEN), digest) == (
        28,
        "845021a039328b9e44ca7d0a4b5a9956bcb0ed133b3a404267f2ad86ee41a89f",
    )


@pytest.mark.parametrize("text,canonical", GOLDEN)
def test_canonical_bytes_of_symmetric_leads(text, canonical):
    mol = parse_smiles(text)
    assert canonical_form(mol) == canonical
    assert canonical_form(permuted_copy(mol, random.Random(text))) == canonical


_ARM = "C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"


@pytest.mark.parametrize(
    "text",
    [
        "CC(C)(C)CC(CC(C)(C)C)(CC(C)(C)C)CC(C)(C)C",
        f"C({_ARM})({_ARM})({_ARM}){_ARM}",  # 53-atom tBu dendrimer
    ],
)
def test_highly_symmetric_graphs_canonicalize_in_bounded_time(text):
    mol = parse_smiles(text)
    rng = random.Random(53)
    start = time.perf_counter()
    forms = {canonical_form(permuted_copy(mol, rng)) for _ in range(3)}
    elapsed = time.perf_counter() - start
    assert len(forms) == 1
    # The exhaustive search took minutes on the dendrimer; the pruned one
    # takes well under a second. The bound leaves room for a loaded machine.
    assert elapsed < 30.0


def test_write_smiles_needs_no_recursion_on_long_chains(monkeypatch):
    def refuse(limit):
        raise AssertionError("write_smiles must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 5000
    # A fluorine on the first carbon puts the whole chain inside a branch;
    # two on the last carbon end it with a branch and a last child.
    atoms = [Atom("C")] * n + [Atom("F")] * 3
    bonds = [Bond(i, i + 1) for i in range(n - 1)]
    bonds += [Bond(0, n), Bond(n - 1, n + 1), Bond(n - 1, n + 2)]
    mol = MolGraph(tuple(atoms), tuple(bonds))
    assert mg.write_smiles(mol) == "C(" + "C" * (n - 1) + "(F)F)F"
