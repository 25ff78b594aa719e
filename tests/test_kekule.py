"""Kekulé perception: the matching test against the backtracking assignment.

``molgraph`` only decides whether the π atoms of the aromatic bonds pair up;
the sums and hydrogen counts follow from that. Before, a recursive search
built one full alternating assignment and summed its bond orders. That
search is kept below as the reference: every graph must get the same
validity report, bond-order sums and hydrogen counts from both.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadopt import molgraph as mg
from leadopt.molgraph import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    Atom,
    Bond,
    KekulizeError,
    MolGraph,
    ValenceError,
    ValidityReport,
    bond_order_sums,
    hydrogen_counts,
    parse_smiles,
    validate,
    write_smiles,
)

from _molbuild import LONE_PAIR_ATOMS, PI_ATOMS, aromatic_system, permuted_copy


def _kekule_assignment(mol: MolGraph) -> tuple[int, ...] | None:
    """Per-bond orders with every aromatic bond single or double, or None."""
    need = {i for i, atom in enumerate(mol.atoms) if atom.aromatic and mg._pi_need(mol, i) == 1}
    arom_adj: dict[int, list[tuple[int, int]]] = {i: [] for i in need}
    for bi, bond in enumerate(mol.bonds):
        if bond.order == AROMATIC and bond.a in need and bond.b in need:
            arom_adj[bond.a].append((bond.b, bi))
            arom_adj[bond.b].append((bond.a, bi))
    matched_bond: dict[int, int] = {}

    def backtrack(pending: list[int]) -> bool:
        while pending and pending[-1] in matched_bond:
            pending.pop()
        if not pending:
            return True
        atom = pending[-1]
        for other, bi in arom_adj[atom]:
            if other in matched_bond:
                continue
            matched_bond[atom] = bi
            matched_bond[other] = bi
            if backtrack(list(pending)):
                return True
            del matched_bond[atom]
            del matched_bond[other]
        return False

    if not backtrack(sorted(need, key=lambda i: -len(arom_adj[i]))):
        return None
    double_bonds = set(matched_bond.values())
    return tuple(
        (DOUBLE if bi in double_bonds else SINGLE) if bond.order == AROMATIC else bond.order
        for bi, bond in enumerate(mol.bonds)
    )


def _reference(mol: MolGraph) -> tuple[ValidityReport, tuple[int, ...], tuple[int, ...], type | None]:
    """Validity report, sums, hydrogen counts and parse error of a connected graph, from the assignment."""
    violations = []
    ring_bonds = mg.ring_bond_flags(mol)
    arom_core: dict[int, int] = {}
    for bi, bond in enumerate(mol.bonds):
        if bond.order != AROMATIC:
            continue
        for idx in bond.pair:
            if not mol.atoms[idx].aromatic:
                violations.append((idx, "aromatic", "aromatic bond on non-aromatic atom"))
        if not ring_bonds[bi]:
            violations.append((bond.a, "aromatic", "aromatic bond outside any ring"))
        arom_core[bond.a] = arom_core.get(bond.a, 0) + 1
        arom_core[bond.b] = arom_core.get(bond.b, 0) + 1
    for idx, atom in enumerate(mol.atoms):
        if atom.aromatic and arom_core.get(idx, 0) < 2:
            violations.append((idx, "aromatic", "aromatic atom outside an aromatic ring"))
    orders = None if violations else _kekule_assignment(mol)
    if not violations and orders is None:
        first = [i for i, a in enumerate(mol.atoms) if a.aromatic][0]
        violations.append((first, "kekulize", "no alternating bond assignment for aromatic system"))
    parse_error = KekulizeError if violations else None

    sums = [0] * len(mol.atoms)
    for bi, bond in enumerate(mol.bonds):
        order = bond.order
        if order == AROMATIC:
            order = orders[bi] if orders is not None else SINGLE
        sums[bond.a] += order
        sums[bond.b] += order
    hydrogens = []
    for idx, (atom, bondsum) in enumerate(zip(mol.atoms, sums)):
        allowed = mg.allowed_valences(atom.element, atom.formal_charge)
        if atom.explicit_h is not None:
            hydrogens.append(atom.explicit_h)
        else:
            target = min((v for v in allowed if v >= bondsum), default=bondsum)
            hydrogens.append(max(0, target - bondsum))
        if orders is None:
            continue
        total = bondsum + (atom.explicit_h or 0)
        if atom.explicit_h is None and bondsum > max(allowed):
            violations.append((idx, "valence", f"{atom.element} bond-order sum {bondsum} exceeds {max(allowed)}"))
        elif atom.explicit_h is not None and total not in allowed:
            violations.append((idx, "valence", f"{atom.element} total valence {total} not in {allowed}"))
    if violations and parse_error is None:
        parse_error = ValenceError
    report = ValidityReport(not violations, tuple(violations))
    return report, tuple(sums), tuple(hydrogens), parse_error


def _assert_matches_reference(mol: MolGraph) -> None:
    report, sums, hydrogens, _ = _reference(mol)
    assert validate(mol) == report
    assert bond_order_sums(mol) == sums
    assert all(type(value) is int for value in bond_order_sums(mol))
    assert hydrogen_counts(mol) == hydrogens


@settings(max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), rings=st.integers(1, 6))
def test_perception_matches_backtracking_assignment(seed, rings):
    rng = random.Random(seed)
    mol = aromatic_system(rng, rings)
    _assert_matches_reference(mol)
    _assert_matches_reference(permuted_copy(mol, rng))


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), rings=st.integers(1, 5))
def test_parse_smiles_raises_what_the_assignment_gave(seed, rings):
    text = write_smiles(aromatic_system(random.Random(seed), rings))
    mol = mg._resolve_orders(*mg._parse_fragment(text))
    expected = _reference(mol)[3]
    if expected is None:
        assert parse_smiles(text) == mol
    else:
        with pytest.raises(expected) as caught:
            parse_smiles(text)
        assert type(caught.value) is expected


def test_random_systems_reach_every_rule():
    outcomes = {
        (validate(mol).valid, tuple(sorted({rule for _, rule, _ in validate(mol).violations})))
        for mol in (aromatic_system(random.Random(seed), 1 + seed % 6) for seed in range(400))
    }
    assert (True, ()) in outcomes
    assert (False, ("kekulize",)) in outcomes
    assert any("aromatic" in rules for _, rules in outcomes)
    assert any("valence" in rules for _, rules in outcomes)


def _sparse_aromatic_graph(rng: random.Random, atoms: int) -> MolGraph:
    """A random connected graph of aromatic carbons with at most three bonds each.

    A random tree plus chords: not a molecule, but its odd cycles make the
    matching search shrink blossoms, which fused six-rings never need.
    """
    degree = [0] * atoms
    pairs = set()
    chords = int(atoms * rng.uniform(0.25, 0.5))
    for step in range(1, atoms + chords):
        if step < atoms:
            a, b = rng.choice([i for i in range(step) if degree[i] < 3]), step
        else:
            a, b = sorted(rng.sample([i for i in range(atoms) if degree[i] < 3], 2))
        if (a, b) not in pairs:
            pairs.add((a, b))
            degree[a] += 1
            degree[b] += 1
    return MolGraph((Atom("C", aromatic=True),) * atoms, tuple(Bond(a, b, AROMATIC) for a, b in sorted(pairs)))


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), atoms=st.integers(2, 24))
def test_matching_exists_iff_backtracking_finds_one_on_odd_cycles(seed, atoms):
    mol = _sparse_aromatic_graph(random.Random(seed), atoms)
    assert (mg._pi_atoms(mol) is not None) == (_kekule_assignment(mol) is not None)


def test_blossom_through_the_root():
    # Atom 2's tree reaches the outer atom 1 across the 0-1-2 triangle; only
    # shrinking that blossom lets the search go on to the free atom 3.
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2))
    mol = MolGraph((Atom("C", aromatic=True),) * 4, tuple(Bond(a, b, AROMATIC) for a, b in pairs))
    assert mg._pi_atoms(mol) == frozenset(range(4))


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("benzenoid", "sparse")),
    defects=st.integers(0, 3),
)
def test_matching_exists_iff_networkx_finds_a_perfect_matching(seed, kind, defects):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    if kind == "benzenoid":
        mol = aromatic_system(rng, rng.randint(34, 60), flaws=False, sizes=(6,), spoil=0)
    else:
        mol = _sparse_aromatic_graph(rng, rng.randint(100, 300))
    atoms = list(mol.atoms)
    for _ in range(defects):
        atoms[rng.randrange(len(atoms))] = rng.choice(PI_ATOMS + LONE_PAIR_ATOMS)
    mol = MolGraph(tuple(atoms), mol.bonds)
    need = [i for i, atom in enumerate(mol.atoms) if atom.aromatic and mg._pi_need(mol, i) == 1]
    graph = nx.Graph()
    graph.add_nodes_from(need)
    graph.add_edges_from(b.pair for b in mol.bonds if b.a in graph and b.b in graph)
    perfect = 2 * len(nx.max_weight_matching(graph, maxcardinality=True)) == len(need)
    assert len(mol.atoms) >= 100
    assert (mg._pi_atoms(mol) is not None) == perfect


def _linked_phenyls(count: int) -> MolGraph:
    atoms, bonds = [], []
    for ring in range(count):
        base = 6 * ring
        atoms += [Atom("C", aromatic=True)] * 6
        bonds += [Bond(base + i, base + (i + 1) % 6, AROMATIC) for i in range(6)]
        if ring:
            bonds.append(Bond(base - 3, base))
    return MolGraph(tuple(atoms), tuple(bonds))


def test_kekule_failure_behind_many_rings_is_rejected_in_bounded_time():
    # The backtracking search tried every matching of the 22 phenyls before
    # it gave up on the cyclopentadienyl ring: 44 s.
    text = "c1cccc1" + "c1ccc(cc1)" * 22 + "C"
    start = time.perf_counter()
    with pytest.raises(KekulizeError):
        parse_smiles(text)
    assert time.perf_counter() - start < 1.0


def test_long_aromatic_chain_validates_without_recursion():
    # One stack frame per matched pair made 400 phenyls raise RecursionError.
    mol = _linked_phenyls(400)
    start = time.perf_counter()
    assert validate(mol).valid
    assert time.perf_counter() - start < 1.0
    assert bond_order_sums(mol)[:6] == (3, 3, 3, 4, 3, 3)
