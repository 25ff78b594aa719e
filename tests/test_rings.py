"""Ring-bond perception against the bridge search it replaced.

``molgraph.ring_bond_flags`` marks the bonds outside one spanning forest and
the forest paths between their ends. Before, an iterative Tarjan bridge
search marked every bond that is not a bridge. That search is kept below as
the reference: both must flag the same bonds on any graph, connected or
not.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadopt import molgraph as mg
from leadopt.molgraph import Atom, Bond, MolGraph

from _molbuild import random_molgraph


def _tarjan_ring_bond_flags(mol: MolGraph) -> tuple[bool, ...]:
    """True for every bond that lies on a cycle (i.e. is not a bridge)."""
    adj = mg.neighbors(mol)
    n = len(mol.atoms)
    index = [0] * n
    low = [0] * n
    visited = [False] * n
    is_bridge = [False] * len(mol.bonds)
    counter = [1]

    for root in range(n):
        if visited[root]:
            continue
        # Iterative Tarjan bridge finding.
        stack = [(root, -1, iter(adj[root]))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            node, in_bond, it = stack[-1]
            advanced = False
            for other, bi in it:
                if bi == in_bond:
                    continue
                if not visited[other]:
                    visited[other] = True
                    index[other] = low[other] = counter[0]
                    counter[0] += 1
                    stack.append((other, bi, iter(adj[other])))
                    advanced = True
                    break
                low[node] = min(low[node], index[other])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[node])
                if low[node] > index[parent]:
                    is_bridge[in_bond] = True
    return tuple(not is_bridge[i] for i in range(len(mol.bonds)))


def _assert_same_flags(mol: MolGraph) -> None:
    assert mg.ring_bond_flags(mol) == _tarjan_ring_bond_flags(mol)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_forest_matches_bridge_search_on_molecules(seed):
    _assert_same_flags(random_molgraph(random.Random(seed), 2, 40))


def _carbon_graph(n: int, pairs) -> MolGraph:
    # The flags do not depend on valence: every atom a carbon, every bond single.
    return MolGraph((Atom("C"),) * n, tuple(Bond(a, b) for a, b in sorted(pairs)))


# Any simple graph on up to 30 atoms, often disconnected.
arbitrary_graphs = st.integers(1, 30).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=3 * n,
    ).map(lambda pairs: _carbon_graph(n, pairs))
)


@settings(max_examples=500)
@given(mol=arbitrary_graphs)
@example(mol=_carbon_graph(3, ()))  # no bonds at all
@example(mol=_carbon_graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3))))  # two rings and a bridge
def test_forest_matches_bridge_search_on_arbitrary_graphs(mol):
    _assert_same_flags(mol)


def test_forest_matches_bridge_search_on_linked_phenyls():
    mol = mg.parse_smiles("c1ccc(cc1)" * 99 + "C")
    _assert_same_flags(mol)
    assert sum(mg.ring_bond_flags(mol)) == 6 * 99
