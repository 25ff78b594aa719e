"""Shared test helpers: a curated SMILES corpus and seeded molecule builders."""

from __future__ import annotations

import random

from leadopt.molgraph import (
    AROMATIC,
    SINGLE,
    DOUBLE,
    Atom,
    Bond,
    MolGraph,
    canonical_form,
    free_valence,
    neighbors,
    validate,
)

# Fifty molecules covering the supported subset: chains, branches, rings
# (including %nn digits and digit reuse), Kekulé and aromatic forms, fused
# systems, hetero-aromatics, charges, explicit hydrogens, stereo marks, and
# the S/P multi-valence rows.
CURATED_SMILES = (
    "C",
    "CC",
    "CCO",
    "C=C",
    "C#N",
    "CC(=O)O",
    "CC(=O)N",
    "CC#CC",
    "CCCCCCCCCC",
    "CC(C)(C)C",
    "C1CCCCC1",
    "C1CCOC1",
    "C1CN1",
    "C1CC1",
    "C%10CCCC%10",
    "c1ccccc1",
    "C1=CC=CC=C1",
    "Cc1ccccc1",
    "c1ccncc1",
    "c1cc[nH]c1",
    "c1ccoc1",
    "c1ccsc1",
    "c1cnc[nH]1",
    "c1ccc2ccccc2c1",
    "c1ccc2[nH]ccc2c1",
    "c1ccc(-c2ccccc2)cc1",
    "c1ccc2ncccc2c1",
    "Cn1ccnc1",
    "CC(=O)Oc1ccccc1C(=O)O",
    "CC(C)Cc1ccc(C(C)C(=O)O)cc1",
    "CC(=O)Nc1ccc(O)cc1",
    "CN1CCCC1c1cccnc1",
    "OCC(O)CO",
    "NCC(=O)O",
    "CS(=O)(=O)N",
    "CS(=O)C",
    "OS(=O)(=O)O",
    "OP(=O)(O)O",
    "COP(=O)(OC)OC",
    "FC(F)(F)c1ccccc1",
    "ClCCl",
    "BrCBr",
    "ICI",
    "OB(O)c1ccccc1",
    "[NH4+]",
    "C[N+](C)(C)C",
    "CC(=O)[O-]",
    "N[C@@H](C)C(=O)O",
    "F/C=C/F",
    "CN(C)CCOC(c1ccccc1)c1ccccc1",
)

assert len(CURATED_SMILES) == 50

# Valences the random grower budgets against (a conservative subset).
_GROW_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2, "F": 1, "Cl": 1, "Br": 1}
_ELEMENT_POOL = ["C"] * 10 + ["N", "N", "O", "O", "S", "F", "Cl"]


def random_molgraph(rng: random.Random, n_min: int = 5, n_max: int = 24) -> MolGraph:
    """Grow a random valid molecule with capacity bookkeeping.

    Mixes chain growth, occasional double bonds, aromatic six-ring
    injection, and aliphatic ring closures. Valid by construction; validated
    before returning to catch generator bugs early.
    """
    target = rng.randint(n_min, n_max)
    atoms: list[Atom] = [Atom("C")]
    bonds: list[Bond] = []
    free: list[int] = [4]

    def attach_points(minimum: int = 1) -> list[int]:
        return [i for i, slots in enumerate(free) if slots >= minimum]

    while len(atoms) < target:
        anchors = attach_points()
        if not anchors:
            break
        if len(atoms) + 6 <= target and rng.random() < 0.3:
            # Aromatic six-ring, optionally pyridine-like, fused via a
            # single bond to an existing attachment point.
            anchor = rng.choice(anchors)
            base = len(atoms)
            with_n = rng.random() < 0.4
            n_position = rng.randrange(1, 6) if with_n else -1
            for position in range(6):
                if position == n_position:
                    atoms.append(Atom("N", aromatic=True))
                    free.append(0)
                else:
                    atoms.append(Atom("C", aromatic=True))
                    free.append(1)
            for position in range(6):
                bonds.append(
                    Bond(base + position, base + (position + 1) % 6, AROMATIC)
                )
            bonds.append(Bond(anchor, base, SINGLE))
            free[anchor] -= 1
            free[base] -= 1
            continue
        anchor = rng.choice(anchors)
        element = rng.choice(_ELEMENT_POOL)
        order = SINGLE
        if (
            free[anchor] >= 2
            and _GROW_VALENCE[element] >= 2
            and rng.random() < 0.12
        ):
            order = DOUBLE
        atoms.append(Atom(element))
        bonds.append(Bond(anchor, len(atoms) - 1, order))
        free[anchor] -= order
        free.append(_GROW_VALENCE[element] - order)

    # A few aliphatic ring closures between unbonded open atoms.
    bonded = {b.pair for b in bonds}
    for _ in range(rng.randint(0, 2)):
        anchors = attach_points()
        candidates = [
            (a, b)
            for ai, a in enumerate(anchors)
            for b in anchors[ai + 1 :]
            if (a, b) not in bonded and not (atoms[a].aromatic and atoms[b].aromatic)
        ]
        if not candidates:
            break
        a, b = rng.choice(candidates)
        bonds.append(Bond(a, b, SINGLE))
        bonded.add((a, b))
        free[a] -= 1
        free[b] -= 1

    mol = MolGraph(tuple(atoms), tuple(bonds))
    report = validate(mol)
    assert report.valid, report.violations
    return mol


# Aromatic atoms as the SMILES subset writes them: c and n take a double
# bond in a ring; [nH], o and s give a lone pair instead.
PI_ATOMS = (Atom("C", aromatic=True),) * 4 + (Atom("N", aromatic=True),)
LONE_PAIR_ATOMS = (
    Atom("N", aromatic=True, explicit_h=1),
    Atom("O", aromatic=True),
    Atom("S", aromatic=True),
)


def aromatic_system(
    rng: random.Random, rings: int, flaws: bool = True, sizes=(5, 6, 6, 6, 7), spoil: float = 0.1
) -> MolGraph:
    """Aromatic rings of the given sizes, fused on a shared carbon pair or linked at a carbon.

    An odd number of new ring atoms gets one lone-pair atom, as in pyrrole
    or indole; an even number gets one with probability ``spoil``, which
    leaves an odd number of pi atoms. With ``flaws``, a few graphs
    also get exocyclic =O or methyl groups, a non-aromatic ring carbon or an
    aromatic link bond, so that every violation rule is reached.
    """
    atoms: list[Atom] = []
    bonds: dict[tuple[int, int], int] = {}
    degree: list[int] = []

    def bond(a: int, b: int, order: int) -> None:
        bonds[(min(a, b), max(a, b))] = order
        degree[a] += 1
        degree[b] += 1

    def new_atoms(count: int) -> list[int]:
        kinds = [rng.choice(PI_ATOMS) for _ in range(count)]
        if count % 2 or rng.random() < spoil:
            kinds[rng.randrange(count)] = rng.choice(LONE_PAIR_ATOMS)
        atoms.extend(kinds)
        degree.extend([0] * count)
        return list(range(len(atoms) - count, len(atoms)))

    for ring in range(rings):
        size = rng.choice(sizes)
        carbons = [i for i in range(len(atoms)) if atoms[i] == PI_ATOMS[0] and degree[i] < 3]
        fusable = sorted(pair for pair, order in bonds.items() if order == AROMATIC and set(pair) <= set(carbons))
        if fusable and rng.random() < 0.6:
            a, b = rng.choice(fusable)
            cycle = [a] + new_atoms(size - 2) + [b]
        else:
            cycle = new_atoms(size)
            if ring:
                anchor = rng.choice(carbons or [0])
                link = AROMATIC if flaws and rng.random() < 0.05 else SINGLE
                bond(anchor, next((i for i in cycle if atoms[i] == PI_ATOMS[0]), cycle[0]), link)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if (min(a, b), max(a, b)) not in bonds:
                bond(a, b, AROMATIC)
    if flaws:
        for _ in range(rng.choice((0, 0, 1, 2))):
            site = rng.randrange(len(atoms))
            order = rng.choice((SINGLE, DOUBLE))
            atoms.append(Atom("O" if order == DOUBLE else "C"))
            degree.append(0)
            bond(site, len(atoms) - 1, order)
        if rng.random() < 0.05:
            atoms[0] = Atom("C")
    return MolGraph(tuple(atoms), tuple(Bond(a, b, order) for (a, b), order in sorted(bonds.items())))


def permuted_copy(mol: MolGraph, rng: random.Random) -> MolGraph:
    """The same graph under a random atom relabeling."""
    perm = list(range(len(mol.atoms)))
    rng.shuffle(perm)
    inverse = [0] * len(perm)
    for new, old in enumerate(perm):
        inverse[old] = new
    atoms = [None] * len(perm)
    for old, atom in enumerate(mol.atoms):
        atoms[inverse[old]] = atom
    bonds = [Bond(inverse[b.a], inverse[b.b], b.order) for b in mol.bonds]
    return MolGraph(tuple(atoms), tuple(bonds))


def perturb(mol: MolGraph, rng: random.Random, edits: int = 1) -> MolGraph:
    """A nearby valid variant via small terminal edits (swap or attach)."""
    current = mol
    for _ in range(edits):
        for _attempt in range(20):
            candidate = _one_perturbation(current, rng)
            if candidate is not None and validate(candidate).valid:
                current = candidate
                break
    return current


def _one_perturbation(mol: MolGraph, rng: random.Random) -> MolGraph | None:
    adj = neighbors(mol)
    if rng.random() < 0.5:
        terminals = [
            i
            for i, atom in enumerate(mol.atoms)
            if len(adj[i]) == 1
            and not atom.aromatic
            and atom.formal_charge == 0
            and atom.explicit_h is None
            and mol.bonds[adj[i][0][1]].order == SINGLE
        ]
        if terminals:
            idx = rng.choice(terminals)
            options = [e for e in ("C", "N", "O", "F", "Cl") if e != mol.atoms[idx].element]
            atoms = list(mol.atoms)
            atoms[idx] = Atom(rng.choice(options))
            return MolGraph(tuple(atoms), mol.bonds)
    points = [
        i
        for i, atom in enumerate(mol.atoms)
        if atom.explicit_h is None and free_valence(mol, i) >= 1
    ]
    if not points:
        return None
    anchor = rng.choice(points)
    atoms = mol.atoms + (Atom(rng.choice(("C", "N", "O", "F", "Cl"))),)
    return MolGraph(atoms, mol.bonds + (Bond(anchor, len(mol.atoms), SINGLE),))


def random_lead(rng: random.Random) -> MolGraph:
    """A campaign-sized lead (about 18-30 heavy atoms)."""
    return random_molgraph(rng, n_min=18, n_max=30)


def lead_pool(seed: int, count: int) -> list[MolGraph]:
    rng = random.Random(seed)
    leads = []
    seen = set()
    while len(leads) < count:
        mol = random_lead(rng)
        key = canonical_form(mol)
        if key not in seen:
            seen.add(key)
            leads.append(mol)
    return leads


def loose_hex_spellings(text: str) -> dict[str, str]:
    """Forms that ``int(text, 16)`` reads as the same value, none of them canonical.

    ``text`` must start with "00" so that a prefix can stand in for the
    leading zeros without changing the value.
    """
    assert text.startswith("00") and any(c in "abcdef" for c in text)
    return {
        "0x-prefix": "0x" + text[2:],
        "plus-sign": "+" + text[1:],
        "underscore": "0_" + text[2:],
        "uppercase": text.upper(),
        "leading-space": " " + text[1:],
        "trailing-newline": text[1:] + "\n",
        "non-ascii-digit": "\u0660" + text[1:],
    }
