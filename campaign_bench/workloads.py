"""Seeded input generators for the campaign benchmark.

Every generator takes the workload seed and returns the same molecules,
datasets and buffer bytes for the same seed. The program under test only
ever sees the generated files.

- ``asymmetric_leads``: random campaign-sized leads (18-30 heavy atoms).
  ``asymmetric_leads(2026, 100)`` is the acceptance-criterion-10 pool.
- ``star_leads``: leads carrying 2-4 identical star groups (tBu, CF3,
  CCl3) on ring or chain cores, at most 22 heavy atoms.
- ``synthetic_buffer``: trajectory records with real fingerprints, written
  through ``TrajectoryBuffer.insert``/``flush`` so ``load`` verification
  passes.
- ``held_out_neighbours``: leads 1 or 4 terminal edits away from buffer
  leads, never equal to one.
"""

from __future__ import annotations

import json
import random

from leadopt.buffer import StepOutcome, ToolAction, TrajectoryBuffer, TrajectoryRecord
from leadopt.fingerprint import morgan_fp
from leadopt.molgraph import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    Atom,
    Bond,
    MolGraph,
    canonical_form,
    free_valence,
    neighbors,
    parse_smiles,
    validate,
)
from leadopt.tools import builtin_toolset

PROPERTY_CYCLE = ("plogp", "qed", "bbbp", "hia", "mutagenicity")

# ---------------------------------------------------------------------------
# Asymmetric leads (same random stream as the acceptance suite's lead pool)
# ---------------------------------------------------------------------------

_GROW_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2, "F": 1, "Cl": 1, "Br": 1}
_ELEMENT_POOL = ["C"] * 10 + ["N", "N", "O", "O", "S", "F", "Cl"]


def random_molgraph(rng: random.Random, n_min: int, n_max: int) -> MolGraph:
    """Grow a valid molecule: chains, double bonds, aromatic six-rings, closures."""
    target = rng.randint(n_min, n_max)
    atoms: list[Atom] = [Atom("C")]
    bonds: list[Bond] = []
    free: list[int] = [4]

    def attach_points() -> list[int]:
        return [i for i, slots in enumerate(free) if slots >= 1]

    while len(atoms) < target:
        anchors = attach_points()
        if not anchors:
            break
        if len(atoms) + 6 <= target and rng.random() < 0.3:
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
                bonds.append(Bond(base + position, base + (position + 1) % 6, AROMATIC))
            bonds.append(Bond(anchor, base, SINGLE))
            free[anchor] -= 1
            free[base] -= 1
            continue
        anchor = rng.choice(anchors)
        element = rng.choice(_ELEMENT_POOL)
        order = SINGLE
        if free[anchor] >= 2 and _GROW_VALENCE[element] >= 2 and rng.random() < 0.12:
            order = DOUBLE
        atoms.append(Atom(element))
        bonds.append(Bond(anchor, len(atoms) - 1, order))
        free[anchor] -= order
        free.append(_GROW_VALENCE[element] - order)

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
    if not validate(mol).valid:
        raise AssertionError("generator produced an invalid molecule")
    return mol


def asymmetric_leads(seed: int, count: int) -> list[MolGraph]:
    """Distinct random leads of 18-30 heavy atoms, in generation order."""
    rng = random.Random(seed)
    leads = []
    seen = set()
    while len(leads) < count:
        mol = random_molgraph(rng, 18, 30)
        key = canonical_form(mol)
        if key not in seen:
            seen.add(key)
            leads.append(mol)
    return leads


# ---------------------------------------------------------------------------
# Symmetric star leads
# ---------------------------------------------------------------------------

STARS = {"tBu": "C(C)(C)C", "CF3": "C(F)(F)F", "CCl3": "C(Cl)(Cl)Cl"}

# One core per symmetric lead, with a "{}" slot per star: 2-4 stars on
# benzene, pyridine, cyclohexane and chain cores. The cores are fixed so
# that every seed carries the same symmetry load; the seed picks the star
# kind of each lead.
STAR_CORES = (
    "c1cc({})ccc1{}",
    "c1c({})cccc1{}",
    "C1CC({})CCC1{}",
    "C({})CCC{}",
    "c1c({})cc({})cc1{}",
    "c1c({})cc({})nc1{}",
    "C1C({})CC({})CC1{}",
    "C({})CC({})C{}",
    "c1c({})c({})cc({})c1{}",
)


def star_leads(seed: int) -> list[MolGraph]:
    """One lead per core, all of whose stars are the same seeded kind."""
    rng = random.Random(f"stars/{seed}")
    leads = []
    for core in STAR_CORES:
        star = STARS[rng.choice(sorted(STARS))]
        leads.append(parse_smiles(core.format(*(star,) * core.count("{}"))))
    return leads


# ---------------------------------------------------------------------------
# Synthetic trajectory buffer and held-out neighbours
# ---------------------------------------------------------------------------


def perturb(mol: MolGraph, rng: random.Random, edits: int) -> MolGraph:
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


def synthetic_buffer(seed: int, size: int) -> tuple[TrajectoryBuffer, list[MolGraph]]:
    """``size`` trajectory records over distinct random leads.

    Records cycle through the property list; each carries three random
    builtin tool actions and a positive final improvement. Returns the
    buffer and the lead molecules in insertion order.
    """
    rng = random.Random(f"buffer/{seed}")
    tool_ids = [spec.tool_id for spec in builtin_toolset()]
    buffer = TrajectoryBuffer()
    leads = []
    seen = set()
    while len(leads) < size:
        mol = random_molgraph(rng, 18, 30)
        lead = canonical_form(mol)
        if lead in seen:
            continue
        seen.add(lead)
        index = len(leads)
        leads.append(mol)
        actions = tuple(
            ToolAction(rng.choice(tool_ids), rng.randrange(6)) for _ in range(3)
        )
        value = round(rng.uniform(0.5, 5.0), 6)
        outcomes = tuple(
            StepOutcome(lead, round(value * (1 + 0.05 * (step + 1)), 6), 1.0)
            for step in range(3)
        )
        buffer.insert(
            TrajectoryRecord(
                lead=lead,
                lead_fp=morgan_fp(mol),
                property_id=PROPERTY_CYCLE[index % len(PROPERTY_CYCLE)],
                actions=actions,
                step_outcomes=outcomes,
                final_relative_improvement=0.15,
                run_id=f"synthetic-{seed}-{index}",
            )
        )
    return buffer, leads


def held_out_neighbours(seed: int, buffer_leads: list[MolGraph], count: int) -> list[MolGraph]:
    """``count`` distinct leads near buffer leads, alternating 1 and 4 edits.

    Neighbour ``i`` derives from a buffer lead stored under property
    ``PROPERTY_CYCLE[i % 5]``, the property it gets in the dataset, so its
    retrieval searches the partition that holds its source.
    """
    rng = random.Random(f"neighbours/{seed}")
    taken = {canonical_form(mol) for mol in buffer_leads}
    cycle = len(PROPERTY_CYCLE)
    out = []
    while len(out) < count:
        index = len(out)
        edits = 1 if index % 2 == 0 else 4
        source = rng.randrange(len(buffer_leads) // cycle) * cycle + index % cycle
        mol = perturb(buffer_leads[source], rng, edits)
        key = canonical_form(mol)
        if key in taken:
            continue
        taken.add(key)
        out.append(mol)
    return out


def dataset_lines(leads: list[MolGraph]) -> list[str]:
    """Dataset JSON lines: canonical SMILES, properties cycling by position."""
    return [
        json.dumps(
            {"smiles": canonical_form(mol), "property": PROPERTY_CYCLE[index % len(PROPERTY_CYCLE)]},
            sort_keys=True,
        )
        for index, mol in enumerate(leads)
    ]
