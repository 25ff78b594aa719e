"""Circular substructure fingerprints and Tanimoto similarity.

Each atom seeds a 64-bit identifier from its local invariants; identifiers
are then iteratively rehashed over sorted (bond order, neighbor identifier)
lists up to RADIUS and folded into NBITS bits, ECFP4-style (Rogers & Hahn,
J. Chem. Inf. Model. 50:742, 2010); every fingerprint has this one shape.
Environments whose bond sets duplicate an already-hashed environment are
dropped before folding, so popcounts are stable under atom relabeling. The
mixing function is fixed so fingerprints are bit-identical across
platforms. A molecule's fingerprint is computed once and memoized on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .molgraph import (
    InvalidMoleculeError,
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
_OFFSET = 0x165667B19E3779F9
_HEX = re.compile(f"[0-9a-f]{{{NBITS // 4}}}")

_ATOMIC_NUMBER = {
    "B": 5, "C": 6, "N": 7, "O": 8, "F": 9,
    "P": 15, "S": 16, "Cl": 17, "Br": 35, "I": 53,
}


def _hash_ints(values: tuple[int, ...]) -> int:
    """Fold values into a 64-bit identifier, one splitmix64 finalizer each."""
    acc = _SEED
    for value in values:
        x = acc ^ ((value + _OFFSET) & _MASK)
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK
        acc = x ^ (x >> 31)
    return acc


# Atom invariants and radius-1 neighbourhoods recur across molecules; the
# bound keeps the memo's memory fixed for the life of the process.
_hash_recurring = lru_cache(maxsize=4096)(_hash_ints)


@dataclass(frozen=True)
class Fingerprint:
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> NBITS:
            raise ValueError(f"bit field is not an unsigned {NBITS}-bit value")

    def to_hex(self) -> str:
        """Lowercase fixed-width hex of the bitset (persisted form)."""
        return format(self.bits, f"0{NBITS // 4}x")

    @classmethod
    def from_hex(cls, text: str) -> "Fingerprint":
        """Parse the persisted form: exactly NBITS / 4 lowercase hex digits."""
        if not _HEX.fullmatch(text):
            raise ValueError(f"expected {NBITS // 4} lowercase hex digits, got {text!r:.40}")
        return cls(int(text, 16))


def morgan_fp(mol: MolGraph) -> Fingerprint:
    """Hashed circular fingerprint of a valid molecule."""
    fingerprint = mol._cache.get("fingerprint")
    if fingerprint is not None:
        return fingerprint
    report = validate(mol)
    if not report.valid:
        raise InvalidMoleculeError(f"invalid molecule: {report.violations[0][2]}")

    adj = neighbors(mol)
    hydrogens = hydrogen_counts(mol)
    ring = ring_atom_flags(mol)
    orders = [bond.order for bond in mol.bonds]
    ids = [
        _hash_recurring(
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
    # Radius-0 environments ({i}, no bonds) are all distinct.
    bits = 0
    for identifier in ids:
        bits |= 1 << (identifier % NBITS)

    # An environment's atom set is its bonds' endpoints, or {i} without
    # bonds, so the bond set alone (an int mask) keys the duplicate check.
    # A bond-less environment beyond radius 0 repeats its atom's radius-0 one.
    masks = [0] * len(ids)
    seen: set[int] = set()
    for r in range(1, RADIUS + 1):
        hash_env = _hash_recurring if r == 1 else _hash_ints
        new_ids = []
        new_masks = []
        for i, bonded in enumerate(adj):
            flat = [r, ids[i]]
            for pair in sorted([(orders[bi], ids[j]) for j, bi in bonded]):
                flat += pair
            new_ids.append(hash_env(tuple(flat)))
            mask = masks[i]
            for j, bi in bonded:
                mask |= masks[j] | (1 << bi)
            new_masks.append(mask)
        # Features are taken in (radius, identifier, atom) order; the first
        # environment with a given bond set sets the bit.
        first: dict[int, int] = {}
        for mask, identifier in zip(new_masks, new_ids):
            if mask and mask not in seen and identifier < first.get(mask, identifier + 1):
                first[mask] = identifier
        seen.update(first)
        for identifier in first.values():
            bits |= 1 << (identifier % NBITS)
        ids, masks = new_ids, new_masks

    fingerprint = Fingerprint(bits)
    mol._cache["fingerprint"] = fingerprint
    return fingerprint


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 0.0 when both fingerprints are empty."""
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 0.0
    return (a.bits & b.bits).bit_count() / union
