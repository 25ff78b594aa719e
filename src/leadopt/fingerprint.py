"""Circular substructure fingerprints and Tanimoto similarity.

Each atom seeds a 64-bit identifier from its local invariants; identifiers
are then iteratively rehashed over sorted (bond order, neighbor identifier)
lists up to RADIUS and folded into NBITS bits, ECFP4-style (Rogers & Hahn,
J. Chem. Inf. Model. 50:742, 2010); every fingerprint has this one shape.
Environments whose atom/bond sets duplicate an already-hashed environment
are dropped before folding, so popcounts are stable under atom relabeling.
The mixing function is fixed so fingerprints are bit-identical across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .molgraph import (
    MolGraph,
    hydrogen_counts,
    neighbors,
    ring_atom_flags,
    validate,
)

RADIUS = 2
NBITS = 2048

_MASK = (1 << 64) - 1
_SEED = 0x9E3779B97F4A7C15

_ATOMIC_NUMBER = {
    "B": 5, "C": 6, "N": 7, "O": 8, "F": 9,
    "P": 15, "S": 16, "Cl": 17, "Br": 35, "I": 53,
}


class InvalidMoleculeError(ValueError):
    """Operation requires a molecule that passes validation."""


def _mix64(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def _hash_ints(values) -> int:
    acc = _SEED
    for value in values:
        acc = _mix64(acc ^ ((value + 0x165667B19E3779F9) & _MASK))
    return acc


@dataclass(frozen=True)
class Fingerprint:
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> NBITS:
            raise ValueError(f"bit field is not an unsigned {NBITS}-bit value")

    def popcount(self) -> int:
        return bin(self.bits).count("1")

    def to_hex(self) -> str:
        """Lowercase fixed-width hex of the bitset (persisted form)."""
        return format(self.bits, f"0{NBITS // 4}x")

    @classmethod
    def from_hex(cls, text: str) -> "Fingerprint":
        if len(text) != NBITS // 4:
            raise ValueError(f"expected {NBITS // 4} hex digits, got {len(text)}")
        return cls(int(text, 16))


def _initial_identifiers(mol: MolGraph) -> list[int]:
    hydrogens = hydrogen_counts(mol)
    ring = ring_atom_flags(mol)
    adj = neighbors(mol)
    return [
        _hash_ints(
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


def morgan_fp(mol: MolGraph) -> Fingerprint:
    """Hashed circular fingerprint of a valid molecule."""
    report = validate(mol)
    if not report.valid:
        raise InvalidMoleculeError(f"invalid molecule: {report.violations[0][2]}")

    adj = neighbors(mol)
    ids = _initial_identifiers(mol)
    # (radius, identifier, atom) plus the environment's atom/bond sets.
    features: list[tuple[int, int, int, frozenset, frozenset]] = [
        (0, ids[i], i, frozenset((i,)), frozenset()) for i in range(len(mol.atoms))
    ]
    env_atoms = [frozenset((i,)) for i in range(len(mol.atoms))]
    env_bonds = [frozenset() for _ in mol.atoms]

    for r in range(1, RADIUS + 1):
        new_ids = []
        new_env_atoms = []
        new_env_bonds = []
        for i in range(len(mol.atoms)):
            pairs = sorted((mol.bonds[bi].order, ids[j]) for j, bi in adj[i])
            flat = [r, ids[i]]
            for order, neighbor_id in pairs:
                flat.append(order)
                flat.append(neighbor_id)
            new_ids.append(_hash_ints(flat))
            atoms_r = set(env_atoms[i])
            bonds_r = set(env_bonds[i])
            for j, bi in adj[i]:
                atoms_r.update(env_atoms[j])
                bonds_r.update(env_bonds[j])
                bonds_r.add(bi)
            new_env_atoms.append(frozenset(atoms_r))
            new_env_bonds.append(frozenset(bonds_r))
        ids = new_ids
        env_atoms = new_env_atoms
        env_bonds = new_env_bonds
        features.extend(
            (r, ids[i], i, env_atoms[i], env_bonds[i]) for i in range(len(mol.atoms))
        )

    bits = 0
    seen: set[tuple[frozenset, frozenset]] = set()
    for _, identifier, _, atoms_set, bonds_set in sorted(
        features, key=lambda f: (f[0], f[1], f[2])
    ):
        key = (atoms_set, bonds_set)
        if key in seen:
            continue
        seen.add(key)
        bits |= 1 << (identifier % NBITS)
    return Fingerprint(bits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 0.0 when both fingerprints are empty."""
    union = bin(a.bits | b.bits).count("1")
    if union == 0:
        return 0.0
    return bin(a.bits & b.bits).count("1") / union

