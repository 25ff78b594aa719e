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


def _hash_ints(values: tuple[int, ...], acc: int = _SEED) -> int:
    """Fold values into a 64-bit identifier, one splitmix64 finalizer each,
    starting from acc (the seed, or an identifier folded so far)."""
    for value in values:
        x = acc ^ ((value + _OFFSET) & _MASK)
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK
        acc = x ^ (x >> 31)
    return acc


# Atom invariants recur across molecules; the bound keeps the memo's memory
# fixed for the life of the process.
INVARIANT_MEMO_SIZE = 4096
_hash_recurring = lru_cache(maxsize=INVARIANT_MEMO_SIZE)(_hash_ints)


# What the seed folds to after each radius, the first value of an environment.
_RADIUS_FOLDED = [_hash_ints((r,)) for r in range(RADIUS + 1)]


def _hash_environment(key: tuple[int, ...]) -> int:
    """_hash_ints of an environment's (radius, centre identifier, then each
    bond order and neighbour identifier), from the key (radius, centre
    identifier, *links) where a link is ``order << 64 | neighbour identifier``.
    """
    flat = [key[1]]
    for link in key[2:]:
        flat += (link >> 64, link & _MASK)
    return _hash_ints(flat, _RADIUS_FOLDED[key[0]])


# Environments recur across molecules too: verifying a 1,200-lead buffer
# looks up 28,486 radius-1 environments (2,368 distinct) and 22,675 radius-2
# ones (11,158 distinct), and finds 69 % of them here. The bound keeps the
# memo's memory near 1.6 MiB (0.4 KiB an entry) for the life of the process.
ENVIRONMENT_MEMO_SIZE = 4096
_hash_environment_recurring = lru_cache(maxsize=ENVIRONMENT_MEMO_SIZE)(_hash_environment)


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

    atoms, bonds, adj = mol.atoms, mol.bonds, neighbors(mol)
    # Flags enter the hash as 0 and 1, and a bool hashes as its int.
    ids = list(
        map(
            _hash_recurring,
            zip(
                [_ATOMIC_NUMBER[atom.element] for atom in atoms],
                map(len, adj),
                [atom.formal_charge + 8 for atom in atoms],
                hydrogen_counts(mol),
                [atom.aromatic for atom in atoms],
                ring_atom_flags(mol),
            ),
        )
    )
    # Radius-0 environments ({i}, no bonds) are all distinct.
    bits = 0
    for identifier in ids:
        bits |= 1 << (identifier % NBITS)

    # An environment's atom set is its bonds' endpoints, or {i} without
    # bonds, so the bond set alone (an int mask) keys the duplicate check.
    # A bond-less environment beyond radius 0 repeats its atom's radius-0
    # one, so the empty set counts as seen. Radius 1 takes each atom's own
    # bonds, and each radius after it adds its neighbours' sets from before.
    masks = [0] * len(atoms)
    for bi, bond in enumerate(bonds):
        masks[bond.a] |= 1 << bi
        masks[bond.b] |= 1 << bi
    seen = {0}
    # A link ``order << 64 | id`` sorts as the (order, id) pair it stands for.
    orders = [bond.order << 64 for bond in bonds]
    centres = range(len(atoms))
    for r in range(1, RADIUS + 1):
        if r > 1:
            inner, masks = masks, list(masks)
            for bond in bonds:
                masks[bond.a] |= inner[bond.b]
                masks[bond.b] |= inner[bond.a]
        if r == RADIUS:
            # The last radius seeds none after it, so only an environment
            # with a bond set not seen before needs its identifier.
            centres = [i for i in centres if masks[i] not in seen]
        # Features are taken in (radius, identifier, atom) order; the first
        # environment with a given bond set sets the bit.
        # Plain loops: before Python 3.12 a comprehension per atom costs a call.
        previous, ids = ids, []
        first: dict[int, int] = {}
        for i in centres:
            links = []
            for j, bi in adj[i]:
                links.append(orders[bi] | previous[j])
            links.sort()
            identifier = _hash_environment_recurring((r, previous[i], *links))
            ids.append(identifier)
            mask = masks[i]
            if mask not in seen and identifier < first.get(mask, identifier + 1):
                first[mask] = identifier
        seen.update(first)
        for identifier in first.values():
            bits |= 1 << (identifier % NBITS)

    fingerprint = Fingerprint(bits)
    mol._cache["fingerprint"] = fingerprint
    return fingerprint


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 0.0 when both fingerprints are empty."""
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 0.0
    return (a.bits & b.bits).bit_count() / union
