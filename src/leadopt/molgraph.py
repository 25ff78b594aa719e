"""Heavy-atom molecular graphs parsed from a bounded SMILES subset.

The subset covers the organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
their aromatic lowercase forms, bracket atoms with charge / explicit hydrogen
counts / stereo marks, branches, bond symbols ``- = # :``, and ring-closure
digits including ``%nn``. Stereo marks are accepted and discarded: ``@`` and
``@@`` inside brackets are read and dropped, and ``/`` and ``\\`` are single
bonds, so a molecule with them equals the one written without them.
Implicit hydrogens are derived from the valence table and never stored as
atoms. Ring bonds are perceived from one spanning forest. Isotopes, atom
maps, and multi-fragment molecules are rejected.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

# Bond order codes. AROMATIC marks bonds inside perceived aromatic rings;
# validation checks that an alternating single/double assignment exists.
SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, 4
_MULTIPLE = (DOUBLE, TRIPLE)

AROMATIC_ELEMENTS = ("B", "C", "N", "O", "P", "S")

# Allowed total valences (bond-order sum plus hydrogens) for neutral atoms.
ALLOWED_VALENCE = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Charge-specific overrides (ammonium N, alkoxide O, ...). Unlisted
# element/charge pairs fall back to the neutral row.
CHARGED_VALENCE = {
    ("N", 1): (4,),
    ("N", -1): (2,),
    ("O", 1): (3,),
    ("O", -1): (1,),
    ("C", 1): (3,),
    ("C", -1): (3,),
    ("S", 1): (3,),
    ("S", -1): (1,),
    ("P", 1): (4,),
    ("B", -1): (4,),
}

_BOND_FOR_SYMBOL = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC, "/": SINGLE, "\\": SINGLE}
_RING_DIGITS = frozenset("0123456789")

# One SMILES token per match, in ASCII only: the alternatives are the
# grammar, so a character no alternative names is an error, not a guess.
_TOKEN = re.compile(
    r"(?P<atom>Cl|Br|[BCNOPSFI])"
    r"|(?P<aromatic>[bcnops])"
    r"|(?P<ring>[0-9]|%[0-9]{2})"
    r"|(?P<bond>[-=#:/\\])"
    r"|(?P<branch>[()])"
    r"|(?P<bracket>\[(?P<isotope>[0-9]+)?(?P<symbol>Cl|Br|[BCNOPSFI]|[bcnops])"
    r"(?P<chiral>@{1,2})?(?P<hcount>H[0-9]*)?(?P<charge>\+\+|--|[+-][0-9]*)?\])"
    r"|(?P<other>\[[^\]]*\]|.)",  # a bad bracket atom, or any other character
    re.DOTALL,
)
# The same grammar without its groups, so that findall lists the tokens as
# strings; the text of a token names its kind, but for a bracket atom.
_TOKEN_TEXT = re.compile(re.sub(r"\(\?P<\w+>", "(?:", _TOKEN.pattern), re.DOTALL)


class ParseError(ValueError):
    """Base class for SMILES parsing failures."""


class SmilesSyntaxError(ParseError):
    """Bad token, unbalanced parentheses, or unsupported notation."""


class RingError(ParseError):
    """Unmatched, conflicting, or duplicated ring-closure digits."""


class FragmentError(ParseError):
    """Dot-separated multi-fragment input."""


class ValenceError(ParseError):
    """Parsed structure violates the allowed-valence table."""


class KekulizeError(ParseError):
    """Aromatic subgraph admits no alternating single/double assignment."""


class InvalidMoleculeError(ValueError):
    """Operation requires a molecule that passes validation."""


def allowed_valences(element: str, charge: int = 0) -> tuple[int, ...]:
    """Allowed total valences for an element at the given formal charge."""
    if charge and (element, charge) in CHARGED_VALENCE:
        return CHARGED_VALENCE[(element, charge)]
    return ALLOWED_VALENCE[element]


@dataclass(frozen=True)
class Atom:
    element: str
    formal_charge: int = 0
    explicit_h: int | None = None
    aromatic: bool = False

    def __post_init__(self):
        if self.element not in ALLOWED_VALENCE:
            raise ValueError(f"unsupported element {self.element!r}")
        if self.explicit_h is not None and self.explicit_h < 0:
            raise ValueError("explicit hydrogen count must be >= 0")
        if self.aromatic and self.element not in AROMATIC_ELEMENTS:
            raise ValueError(f"{self.element} cannot be aromatic")


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: int = SINGLE

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("bond endpoints must be distinct")
        if self.order not in (SINGLE, DOUBLE, TRIPLE, AROMATIC):
            raise ValueError(f"bad bond order {self.order}")
        if self.a > self.b:
            low, high = self.b, self.a
            object.__setattr__(self, "a", low)
            object.__setattr__(self, "b", high)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class MolGraph:
    """Immutable heavy-atom molecular graph.

    The adjacency, one perception record (ring membership, bond-order sums
    and the validity report, from a single pass), the hydrogen counts, the
    SMILES in atom order, the canonical form, the fingerprint, the
    descriptor record of each property (``evaluate.descriptors``) and the
    edit options of each tool family (``tools._one_edit``) are computed
    lazily and memoized; each is a pure function of the graph and its key,
    and is freed with the molecule. Instances are safe to share across
    threads.
    """

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        n = len(self.atoms)
        seen = set()
        for bond in self.bonds:
            pair = (bond.a, bond.b)
            if pair[0] < 0 or pair[1] >= n:  # a < b, as Bond orders them
                raise ValueError(f"bond {pair} out of range")
            if pair in seen:
                raise ValueError(f"duplicate bond {pair}")
            seen.add(pair)


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[tuple[int, str, str], ...]


# ---------------------------------------------------------------------------
# Perception helpers (adjacency, rings, kekulization, hydrogens)
# ---------------------------------------------------------------------------


def neighbors(mol: MolGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Adjacency list: for each atom, (neighbor index, bond index) pairs."""
    adj = mol._cache.get("adj")
    if adj is None:
        lists = [[] for _ in mol.atoms]
        for bi, bond in enumerate(mol.bonds):
            a, b = bond.a, bond.b
            lists[a].append((b, bi))
            lists[b].append((a, bi))
        for pairs in lists:
            pairs.sort()
        adj = mol._cache["adj"] = tuple(map(tuple, lists))
    return adj


def ring_bond_flags(mol: MolGraph) -> tuple[bool, ...]:
    """True for every bond that lies on a cycle (i.e. is not a bridge)."""
    return _perceive(mol)[0]


def ring_atom_flags(mol: MolGraph) -> tuple[bool, ...]:
    """True for every atom on a ring bond."""
    return _perceive(mol)[1]


def _pi_need(mol: MolGraph, idx: int) -> int:
    """Whether an aromatic atom must receive one double bond.

    Organic-subset conventions: aromatic C takes one double bond unless it
    already carries an explicit double/triple bond (exocyclic carbonyls);
    two-connected n/p are pyridine-like (one double bond), three-connected
    are pyrrole-like (none); o/s contribute lone pairs only. Bracket atoms
    decide by whether sigma valence plus one lands in the allowed table.
    """
    return _atom_pi_need(mol.atoms[idx], neighbors(mol)[idx], mol.bonds)


def _atom_pi_need(atom: Atom, bonded: tuple[tuple[int, int], ...], bonds: tuple[Bond, ...]) -> int:
    """_pi_need of an atom with the given (neighbour, bond index) pairs."""
    for _, bi in bonded:
        if bonds[bi].order in _MULTIPLE:
            return 0
    degree = len(bonded)  # the sigma valence: every bond left is single or aromatic
    if atom.explicit_h is not None or atom.formal_charge != 0:
        sigma = degree + (atom.explicit_h or 0)
        return 1 if sigma + 1 in allowed_valences(atom.element, atom.formal_charge) else 0
    element = atom.element
    if element == "C":
        return 1
    if element in ("N", "P", "B"):
        return 1 if degree == 2 else 0
    return 0  # O, S


def _pi_atoms(mol: MolGraph) -> frozenset[int] | None:
    """Aromatic atoms that take one double bond, or None when they cannot.

    Each needs a partner across one aromatic bond: a perfect matching, which
    exists iff each atom still unmatched in turn has an augmenting path.
    """
    atoms, bonds, adj = mol.atoms, mol.bonds, neighbors(mol)
    need = [i for i, atom in enumerate(atoms) if atom.aromatic and _atom_pi_need(atom, adj[i], bonds)]
    # Each atom in turn takes a free partner if it has one. Augmenting paths
    # are then searched only from the atoms left over: an atom without one
    # rules out a perfect matching, whatever the matching started from.
    mate = dict.fromkeys(need, -1)
    for i in need:
        if mate[i] < 0:
            for j, bi in adj[i]:
                if mate.get(j, 0) < 0 and bonds[bi].order == AROMATIC:
                    mate[i], mate[j] = j, i
                    break
    if -1 not in mate.values():
        return frozenset(need)
    slot = {atom: k for k, atom in enumerate(need)}
    partners: list[list[int]] = [[] for _ in need]
    for bond in bonds:
        if bond.order == AROMATIC and bond.a in slot and bond.b in slot:
            ka, kb = slot[bond.a], slot[bond.b]
            partners[ka].append(kb)
            partners[kb].append(ka)
    match = [slot.get(mate[i], -1) for i in need]
    if all(match[root] >= 0 or _augment(partners, match, root) for root in range(len(need))):
        return frozenset(need)
    return None


def _augment(adj: list[list[int]], match: list[int], root: int) -> bool:
    """Grow one alternating tree from root and flip a path to a free atom, if any.

    Edmonds, "Paths, trees, and flowers" (1965), breadth-first from an
    explicit queue of outer atoms. An edge between two outer atoms closes an
    odd cycle (a blossom), shrunk by pointing its atoms' base at the cycle's
    top; its inner atoms turn outer and join the queue.
    """
    base, parent, queue, outer = list(range(len(adj))), [-1] * len(adj), [root], {root}
    for v in queue:
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to in outer:
                top, above = base[v], {base[v]}  # bases from v up to the root
                while match[top] >= 0:
                    top = base[parent[match[top]]]
                    above.add(top)
                top = base[to]
                while top not in above:
                    top = base[parent[match[top]]]
                blossom = set()
                for x, y in ((v, to), (to, v)):
                    while base[x] != top:
                        blossom.update((base[x], base[match[x]]))
                        parent[x], y = y, match[x]
                        x = parent[y]
                for i in range(len(adj)):
                    if base[i] in blossom:
                        base[i] = top
                        if i not in outer:
                            outer.add(i)
                            queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                if match[to] < 0:
                    while to >= 0:
                        v = parent[to]
                        match[v], match[to], to = to, v, match[v]
                    return True
                outer.add(match[to])
                queue.append(match[to])
    return False


def _perceive(mol: MolGraph) -> tuple[tuple[bool, ...], tuple[bool, ...], tuple[int, ...], ValidityReport]:
    """Ring bonds, ring atoms, bond-order sums and the validity report, from one pass.

    One spanning forest, rooted at each unreached atom in index order, gives
    the rings: each bond outside it closes one cycle with the forest path
    between its ends, and every cycle is built from these, so the ring bonds
    are the non-forest bonds and the forest bonds on their paths. Its second
    root, if any, is the first atom unreachable from atom 0. Violations come
    in the order connectivity, aromatic bonds, aromatic atoms, Kekulé, valence;
    valence is checked only when the aromatic system has an assignment.
    """
    record = mol._cache.get("perception")
    if record is not None:
        return record
    atoms, bonds, adj = mol.atoms, mol.bonds, neighbors(mol)
    violations: list[tuple[int, str, str]] = []
    if not atoms:
        violations.append((-1, "empty", "molecule has no atoms"))
    depth = [-1] * len(atoms)
    up = [(-1, -1)] * len(atoms)  # (parent atom, forest bond); (-1, -1) at a root
    in_forest = [False] * len(bonds)
    for root in range(len(atoms)):
        if depth[root] >= 0:
            continue
        if root and not violations:  # the first root after atom 0's tree
            violations.append((root, "disconnected", "atom unreachable from atom 0"))
        depth[root] = 0
        reached = [root]
        for node in reached:  # breadth first
            below = depth[node] + 1
            for other, bi in adj[node]:
                if depth[other] < 0:
                    depth[other], up[other] = below, (node, bi)
                    in_forest[bi] = True
                    reached.append(other)
    ring_bonds = [False] * len(bonds)
    ring_atoms = [False] * len(atoms)
    for bi, bond in enumerate(bonds):
        if in_forest[bi]:
            continue
        a, b = bond.a, bond.b
        ring_bonds[bi] = ring_atoms[a] = ring_atoms[b] = True
        while a != b:  # climb from the deeper end until the two ends meet
            if depth[a] < depth[b]:
                a, b = b, a
            a, forest_bond = up[a]
            ring_bonds[forest_bond] = ring_atoms[a] = True

    connectivity = len(violations)
    sums = [0] * len(atoms)  # aromatic bonds count 1 here, pi atoms 1 more below
    arom_core = [0] * len(atoms)
    for bi, bond in enumerate(bonds):
        a, b, order = bond.a, bond.b, bond.order
        if order == AROMATIC:
            if not atoms[a].aromatic:
                violations.append((a, "aromatic", "aromatic bond on non-aromatic atom"))
            if not atoms[b].aromatic:
                violations.append((b, "aromatic", "aromatic bond on non-aromatic atom"))
            if not ring_bonds[bi]:
                violations.append((a, "aromatic", "aromatic bond outside any ring"))
            arom_core[a] += 1
            arom_core[b] += 1
            order = SINGLE
        sums[a] += order
        sums[b] += order
    aromatic = [idx for idx, atom in enumerate(atoms) if atom.aromatic]
    for idx in aromatic:
        if arom_core[idx] < 2:
            violations.append((idx, "aromatic", "aromatic atom outside an aromatic ring"))

    pi = None
    if len(violations) == connectivity:  # no aromatic violation
        pi = _pi_atoms(mol)
        if pi is None:
            violations.append((aromatic[0], "kekulize", "no alternating bond assignment for aromatic system"))
    if pi is not None:
        for idx in pi:
            sums[idx] += 1
        for idx, atom in enumerate(atoms):
            bondsum = sums[idx]
            allowed = allowed_valences(atom.element, atom.formal_charge)
            if atom.explicit_h is None:
                if bondsum > max(allowed):
                    violations.append(
                        (idx, "valence", f"{atom.element} bond-order sum {bondsum} exceeds {max(allowed)}")
                    )
            elif bondsum + atom.explicit_h not in allowed:
                violations.append(
                    (idx, "valence", f"{atom.element} total valence {bondsum + atom.explicit_h} not in {allowed}")
                )
    record = (
        tuple(ring_bonds),
        tuple(ring_atoms),
        tuple(sums),
        ValidityReport(not violations, tuple(violations)),
    )
    mol._cache["perception"] = record
    return record


def bond_order_sums(mol: MolGraph) -> tuple[int, ...]:
    """Per-atom bond-order sum with aromatic bonds resolved.

    Any alternating assignment gives each pi atom one double bond, so an
    aromatic bond counts 1 and each pi atom 1 more; with no assignment,
    aromatic bonds count as single.
    """
    return _perceive(mol)[2]


def hydrogen_counts(mol: MolGraph) -> tuple[int, ...]:
    """Total hydrogens per atom: explicit where given, else derived."""
    counts = mol._cache.get("hcounts")
    if counts is None:
        counts = mol._cache["hcounts"] = tuple(
            [
                _implicit_hydrogens(atom.element, atom.formal_charge, bondsum)
                if atom.explicit_h is None
                else atom.explicit_h
                for atom, bondsum in zip(mol.atoms, bond_order_sums(mol))
            ]
        )
    return counts


# The hydrogens of an atom without an explicit count, by (element, charge,
# bond-order sum); few keys recur, and the bound keeps the table small.
HYDROGEN_MEMO_SIZE = 1024


@lru_cache(maxsize=HYDROGEN_MEMO_SIZE)
def _implicit_hydrogens(element: str, charge: int, bondsum: int) -> int:
    """Hydrogens that bring bondsum up to the lowest allowed valence at or
    above it; none past the highest."""
    target = min((v for v in allowed_valences(element, charge) if v >= bondsum), default=bondsum)
    return max(0, target - bondsum)


def free_valence(mol: MolGraph, idx: int) -> int:
    """How many additional single bonds the atom can accept."""
    atom = mol.atoms[idx]
    bondsum = bond_order_sums(mol)[idx]
    cap = max(allowed_valences(atom.element, atom.formal_charge))
    if atom.explicit_h is not None:
        bondsum += atom.explicit_h
    return max(0, cap - bondsum)


def validate(mol: MolGraph) -> ValidityReport:
    """Check connectivity, aromatic perception, and per-atom valence."""
    return _perceive(mol)[3]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_IMPLICIT = 0  # provisional order for bonds written without a symbol

# Atoms are values, so every organic-subset token of a kind shares one Atom.
_TOKEN_ATOMS = {element: Atom(element) for element in ALLOWED_VALENCE} | {
    element.lower(): Atom(element, aromatic=True) for element in AROMATIC_ELEMENTS
}


def _parse_bracket(match: re.Match) -> Atom:
    if match.group("isotope"):
        raise SmilesSyntaxError("isotopes are unsupported")
    symbol = match.group("symbol")
    element = symbol.capitalize()
    hcount = match.group("hcount")
    explicit_h = 0
    if hcount:
        explicit_h = int(hcount[1:]) if len(hcount) > 1 else 1
    charge_text = match.group("charge")
    charge = 0
    if charge_text:
        if charge_text in ("++", "--"):
            charge = 2 if charge_text == "++" else -2
        elif len(charge_text) == 1:
            charge = 1 if charge_text == "+" else -1
        else:
            charge = int(charge_text)
    return Atom(
        element=element,
        formal_charge=charge,
        explicit_h=explicit_h,
        aromatic=element != symbol,
    )


def _parse_fragment(text: str) -> tuple[list[Atom], list[tuple[int, int, int]]]:
    """Parse one connected SMILES fragment into atoms and raw (a, b, order) bonds."""
    atoms: list[Atom] = []
    bonds: list[tuple[int, int, int]] = []
    bonded_pairs: set[tuple[int, int]] = set()
    prev: int | None = None
    branch_stack: list[int] = []
    pending_order: int | None = None
    ring_open: dict[int, tuple[int, int | None]] = {}

    # Kinds by measured frequency, of the 67,797 tokens parsed in a seed-2026 retrieve
    # benchmark run: aromatic 31 %, atom 22 %, '(' and ')' 15 % each, ring 15 %, bond 3 %.
    tokens = _TOKEN_TEXT.findall(text)
    for token in tokens:
        atom = _TOKEN_ATOMS.get(token)  # an organic-subset or aromatic atom
        if atom is None:
            if token[0] == "[":
                match = _TOKEN.match(token)  # the groups of the same token
                if match.lastgroup != "bracket":
                    if token == "[":
                        raise SmilesSyntaxError("unclosed bracket atom")
                    raise SmilesSyntaxError(f"bad bracket atom {token}")
                atom = _parse_bracket(match)
            else:
                if token == "(":
                    if prev is None:
                        raise SmilesSyntaxError("branch before any atom")
                    branch_stack.append(prev)
                elif token == ")":
                    if not branch_stack:
                        raise SmilesSyntaxError("unbalanced ')'")
                    if pending_order is not None:
                        raise SmilesSyntaxError("dangling bond symbol before ')'")
                    prev = branch_stack.pop()
                elif token in _RING_DIGITS or token[0] == "%" and len(token) == 3:
                    if prev is None:
                        raise SmilesSyntaxError("ring digit before any atom")
                    digit = int(token.lstrip("%"))
                    if digit in ring_open:
                        other, open_order = ring_open.pop(digit)
                        if open_order is not None and pending_order is not None and open_order != pending_order:
                            raise RingError(f"conflicting bond symbols on ring digit {digit}")
                        if other == prev:
                            raise RingError("ring closure bonds an atom to itself")
                        pair = (min(other, prev), max(other, prev))
                        if pair in bonded_pairs:
                            raise RingError(f"duplicate bond between atoms {pair}")
                        bonded_pairs.add(pair)
                        order = pending_order if pending_order is not None else open_order
                        bonds.append((other, prev, order if order is not None else _IMPLICIT))
                    else:
                        ring_open[digit] = (prev, pending_order)
                    pending_order = None
                elif token in _BOND_FOR_SYMBOL:
                    if pending_order is not None:
                        raise SmilesSyntaxError("two consecutive bond symbols")
                    pending_order = _BOND_FOR_SYMBOL[token]
                elif token == "%":
                    raise SmilesSyntaxError("'%' must be followed by two digits")
                else:
                    # Any earlier token of this text raised already, so this is its first.
                    position = sum(map(len, tokens[: tokens.index(token)]))
                    raise SmilesSyntaxError(f"unexpected character {token!r} at position {position}")
                continue
        # A new atom: its bond to the atom before it cannot repeat one.
        idx = len(atoms)
        atoms.append(atom)
        if prev is not None:
            bonded_pairs.add((prev, idx))
            bonds.append((prev, idx, pending_order if pending_order is not None else _IMPLICIT))
        elif pending_order is not None:
            raise SmilesSyntaxError("bond symbol before any atom")
        prev = idx
        pending_order = None

    if branch_stack:
        raise SmilesSyntaxError("unclosed branch")
    if pending_order is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input")
    if ring_open:
        digit = sorted(ring_open)[0]
        raise RingError(f"unmatched ring digit {digit}")
    if not atoms:
        raise SmilesSyntaxError("empty SMILES")
    return atoms, bonds


# Parsed bonds are values too. The (a, b, order) triples of parsed molecules
# recur (718 distinct in a 1,200-lead buffer), so each is made once; the
# bound keeps the memo's memory fixed for the life of the process.
BOND_MEMO_SIZE = 4096
_bond = lru_cache(maxsize=BOND_MEMO_SIZE)(Bond)


def _resolve_orders(atoms: list[Atom], raw_bonds: list[tuple[int, int, int]]) -> MolGraph:
    """Resolve implicit bond orders, demoting non-ring aromatic contacts."""
    provisional = []
    implicit_aromatic = []
    for a, b, order in raw_bonds:
        if order == _IMPLICIT:
            if atoms[a].aromatic and atoms[b].aromatic:
                implicit_aromatic.append(len(provisional))
                order = AROMATIC
            else:
                order = SINGLE
        provisional.append(_bond(a, b, order))
    mol = MolGraph(tuple(atoms), tuple(provisional))
    if not implicit_aromatic:
        return mol
    ring = ring_bond_flags(mol)
    # An implicit bond between aromatic atoms outside any ring is a plain
    # single bond (e.g. the biphenyl linker).
    chain = [bi for bi in implicit_aromatic if not ring[bi]]
    if not chain:
        return mol
    for bi in chain:
        a, b, _ = raw_bonds[bi]
        provisional[bi] = _bond(a, b, SINGLE)
    return MolGraph(tuple(atoms), tuple(provisional))


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string into a validated MolGraph.

    Raises SmilesSyntaxError, RingError, FragmentError, KekulizeError, or
    ValenceError; never silently repairs the input.
    """
    stripped = text.strip(" \t\n\r\f\v")  # ASCII whitespace only, like the grammar
    if "." in stripped:
        raise FragmentError("multi-fragment SMILES rejected")
    atoms, bonds = _parse_fragment(stripped)
    if len(bonds) - len(atoms) + 1 > 99:
        raise RingError(f"{len(bonds) - len(atoms) + 1} ring closures, at most 99 can be written")
    mol = _resolve_orders(atoms, bonds)

    report = validate(mol)
    if not report.valid:
        idx, rule, message = report.violations[0]
        if rule in ("aromatic", "kekulize"):
            raise KekulizeError(message)
        raise ValenceError(f"atom {idx}: {message}")
    return mol


# ---------------------------------------------------------------------------
# Writing and canonicalization
# ---------------------------------------------------------------------------


def _atom_token(mol: MolGraph, idx: int) -> str:
    atom = mol.atoms[idx]
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if atom.formal_charge == 0 and atom.explicit_h is None:
        return symbol
    if atom.explicit_h is None:
        hydrogens = hydrogen_counts(mol)[idx]
    else:
        hydrogens = atom.explicit_h
    h_part = "" if hydrogens == 0 else ("H" if hydrogens == 1 else f"H{hydrogens}")
    charge = atom.formal_charge
    if charge == 0:
        charge_part = ""
    elif charge in (1, -1):
        charge_part = "+" if charge == 1 else "-"
    else:
        charge_part = f"{charge:+d}"
    return f"[{symbol}{h_part}{charge_part}]"


def _bond_token(mol: MolGraph, bond_idx: int) -> str:
    bond = mol.bonds[bond_idx]
    if bond.order == DOUBLE:
        return "="
    if bond.order == TRIPLE:
        return "#"
    if bond.order == SINGLE and mol.atoms[bond.a].aromatic and mol.atoms[bond.b].aromatic:
        return "-"  # would otherwise read back as aromatic
    return ""


def write_smiles(mol: MolGraph, ranks: tuple[int, ...] | None = None) -> str:
    """Serialize a connected, valid MolGraph to SMILES.

    Traversal follows atom indices, or the given rank vector when supplied
    (used by canonical_form to fix the output string). The string in atom
    index order is memoized on the molecule.
    """
    if not mol.atoms:
        raise ValueError("cannot write an empty molecule")
    if ranks is None:
        if "smiles" not in mol._cache:
            mol._cache["smiles"] = write_smiles(mol, tuple(range(len(mol.atoms))))
        return mol._cache["smiles"]
    adj = neighbors(mol)

    start = min(range(len(mol.atoms)), key=lambda i: ranks[i])
    visited = [False] * len(mol.atoms)
    tree_children: list[list[tuple[int, int]]] = [[] for _ in mol.atoms]
    ring_events: list[tuple[int, int]] = []  # (first emit position, bond index)
    emit_order: list[int] = []

    stack = [start]
    seen_bonds: set[int] = set()
    visited[start] = True
    while stack:
        node = stack.pop()
        emit_order.append(node)
        ordered = sorted(adj[node], key=lambda pair: ranks[pair[0]])
        children = []
        for other, bi in ordered:
            if bi in seen_bonds:
                continue
            seen_bonds.add(bi)
            if visited[other]:
                ring_events.append(bi)
            else:
                visited[other] = True
                children.append((other, bi))
        tree_children[node] = children
        for other, _ in reversed(children):
            stack.append(other)

    # Ring-closure digits are assigned by the endpoints' emission positions
    # (an index-free key, so canonical output is relabeling-invariant);
    # digits are not reused within one molecule.
    position = {atom: pos for pos, atom in enumerate(emit_order)}
    digit_of_bond: dict[int, int] = {}
    digits_at: list[list[int]] = [[] for _ in mol.atoms]

    def event_key(bi: int) -> tuple[int, int]:
        first, second = sorted(position[a] for a in mol.bonds[bi].pair)
        return (first, second)

    for pos, bi in enumerate(sorted(ring_events, key=event_key), start=1):
        if pos > 99:
            raise ValueError("ring closure digits exhausted")
        digit_of_bond[bi] = pos
        bond = mol.bonds[bi]
        first, second = sorted(bond.pair, key=lambda a: position[a])
        digits_at[first].append(bi)
        digits_at[second].append(bi)

    def digit_token(bi: int) -> str:
        digit = digit_of_bond[bi]
        return str(digit) if digit < 10 else f"%{digit:02d}"

    # Pre-order emission from an explicit stack of atoms and literal
    # tokens, so deep chains need no recursion.
    parts: list[str] = []
    pending: list[int | str] = [start]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(_atom_token(mol, item))
        for bi in digits_at[item]:
            parts.append(_bond_token(mol, bi) + digit_token(bi))
        children = tree_children[item]
        for pos in range(len(children) - 1, -1, -1):
            child, bi = children[pos]
            if pos < len(children) - 1:
                pending.extend((")", child, "(" + _bond_token(mol, bi)))
            else:
                pending.extend((child, _bond_token(mol, bi)))
    return "".join(parts)


def _initial_keys(mol: MolGraph) -> list[tuple]:
    hydrogens = hydrogen_counts(mol)
    ring = ring_atom_flags(mol)
    adj = neighbors(mol)
    return [
        (
            atom.element,
            atom.formal_charge,
            len(adj[i]),
            hydrogens[i],
            atom.aromatic,
            ring[i],
            atom.explicit_h is not None,
        )
        for i, atom in enumerate(mol.atoms)
    ]


def _partition(keys: list) -> tuple[list[int], dict[int, list[int]]]:
    """The atoms ordered by key, as (labels, cells).

    Atom i's label is the start of its cell: the number of atoms with a
    smaller key. ``cells`` maps each start to that cell's atoms in index
    order.
    """
    ordered = sorted(keys)
    labels = [bisect_left(ordered, key) for key in keys]
    cells: dict[int, list[int]] = {}
    for atom, start in enumerate(labels):
        cells.setdefault(start, []).append(atom)
    return labels, cells


def _refine(
    bonded: list[list[tuple[int, int]]],
    labels: list[int],
    cells: dict[int, list[int]],
    changed: Sequence[int],
) -> None:
    """Split cells in place until all atoms of a cell see the same labels.

    ``bonded[i]`` lists atom i's (bond order, neighbour) pairs; ``changed``
    holds the atoms relabelled since the partition was last stable. Each
    round re-sorts, by the sorted (bond order, label) pairs of its atoms,
    only the cells next to an atom relabelled the round before, reading the
    labels from before the round: the atoms of any other cell still see
    equal pairs. The first part of a split cell keeps its start, so only
    the atoms of the later parts are relabelled.
    """
    while changed:
        touched = {labels[j] for i in changed for _, j in bonded[i]}
        relabelled = []  # starts of the later parts of split cells
        for start in touched:
            members = cells[start]
            if len(members) == 1:
                continue
            keyed = sorted(
                (sorted([(order, labels[j]) for order, j in bonded[i]]), i) for i in members
            )
            if keyed[0][0] == keyed[-1][0]:
                continue
            parts = [[keyed[0][1]]]
            for (previous, _), (key, atom) in zip(keyed, keyed[1:]):
                if key != previous:
                    parts.append([])
                parts[-1].append(atom)
            cells[start] = parts[0]
            pos = start + len(parts[0])
            for part in parts[1:]:
                cells[pos] = part
                relabelled.append(pos)
                pos += len(part)
        changed = [atom for start in relabelled for atom in cells[start]]
        for start in relabelled:
            for atom in cells[start]:
                labels[atom] = start


def _signature(mol: MolGraph, ranks: list[int], initial: list[tuple]) -> tuple:
    adj = neighbors(mol)
    by_rank = sorted(range(len(mol.atoms)), key=lambda i: ranks[i])
    return tuple(
        (
            initial[i],
            tuple(sorted((mol.bonds[bi].order, ranks[j]) for j, bi in adj[i])),
        )
        for i in by_rank
    )


class _SearchNode:
    """One node of the canonical search: a refined partition whose lowest
    tied cell is individualized one atom at a time.

    ``automorphisms`` holds the automorphisms found so far that fix every
    atom individualized on the way to this node, each as a dict from moved
    atom to image; ``orbit`` is their union-find over atoms, kept up to date
    as automorphisms arrive.
    """

    __slots__ = ("labels", "cells", "cell", "cursor", "explored", "automorphisms", "orbit")

    def __init__(
        self,
        labels: list[int],
        cells: dict[int, list[int]],
        cell: list[int],
        automorphisms: list[dict[int, int]],
    ):
        self.labels = labels
        self.cells = cells
        self.cell = cell
        self.cursor = 0
        self.explored: list[int] = []
        self.automorphisms = automorphisms
        self.orbit = list(range(len(labels)))
        for moved in automorphisms:
            self._union(moved)

    def _root(self, atom: int) -> int:
        orbit = self.orbit
        while orbit[atom] != atom:
            orbit[atom] = orbit[orbit[atom]]
            atom = orbit[atom]
        return atom

    def _union(self, moved: dict[int, int]) -> None:
        for atom, image in moved.items():
            a, b = self._root(atom), self._root(image)
            if a != b:
                self.orbit[max(a, b)] = min(a, b)

    def _shares_orbit(self, atom: int, others: list[int]) -> bool:
        root = self._root(atom)
        return any(self._root(other) == root for other in others)

    def next_atom(self) -> int | None:
        """The next cell atom in no orbit of an explored one, or None."""
        while self.cursor < len(self.cell):
            atom = self.cell[self.cursor]
            self.cursor += 1
            if not self._shares_orbit(atom, self.explored):
                self.explored.append(atom)
                return atom
        return None

    def absorb(self, moved: dict[int, int]) -> bool:
        """Add an automorphism that fixes this node's path.

        True when it puts the atom being explored in the orbit of an earlier
        explored one: the rest of that subtree is then an image of explored
        work, and the search may leave it.
        """
        self.automorphisms.append(moved)
        self._union(moved)
        return self._shares_orbit(self.explored[-1], self.explored[:-1])


def canonical_ranks(mol: MolGraph) -> tuple[int, ...]:
    """Permutation-invariant atom ranking via iterative refinement.

    The atoms are ordered by their initial keys into cells, and each atom's
    label is the start of its cell: the number of atoms in lower cells.
    Labels order the cells as dense ranks do, so every comparison, and
    every leaf, is the one a whole-graph refinement over dense ranks gives.
    Refinement splits cells by the labels of their atoms' neighbours,
    re-sorting only the cells next to an atom relabelled in the round
    before (``_refine``). Remaining ties are broken by individualizing each
    atom of the lowest tied cell in turn: it keeps the cell's start and the
    rest of the cell moves one place up. Among the leaves, where every cell
    is one atom and each label is a rank, the first with the smallest final
    signature wins, so automorphic choices collapse to one result. When
    refinement alone leaves every cell one atom, that lone leaf is the
    result and no signature is computed.

    Two leaves with equal signatures give an automorphism: the atom of rank
    r in one maps to the atom of rank r in the other. A tied atom in the
    orbit of an already explored one, under the automorphisms found so far
    that fix the individualized atoms above it, is skipped: its subtree is
    an image of an explored one and holds only signatures already seen, so
    the result is the one the unpruned search returns (McKay & Piperno,
    "Practical graph isomorphism, II", 2014). For the same reason the search
    leaves a subtree as soon as a new automorphism puts its root in such an
    orbit.
    """
    initial = _initial_keys(mol)
    bonded = [[(mol.bonds[bi].order, j) for j, bi in adj] for adj in neighbors(mol)]
    seen: dict[tuple, list[int]] = {}
    best_signature: tuple | None = None
    best_ranks: list[int] = []
    path: list[_SearchNode] = []
    labels, cells = _partition(initial)
    changed: Sequence[int] = range(len(labels))
    start = 0  # every cell below the one last individualized is one atom
    while True:
        _refine(bonded, labels, cells, changed)
        # Refinement only splits cells, so the lowest tied cell is at or
        # above the start of the cell last individualized.
        while start < len(labels) and len(cells[start]) == 1:
            start += 1
        if start < len(labels):
            if path:
                chosen = path[-1].explored[-1]
                fixing = [moved for moved in path[-1].automorphisms if chosen not in moved]
            else:
                fixing = []
            path.append(_SearchNode(labels, cells, cells[start], fixing))
        else:
            # Every cell is one atom, so each label is the atom's rank.
            ranks = labels
            if not path:
                # Refinement alone was discrete: the one leaf wins unseen.
                return tuple(ranks)
            signature = _signature(mol, ranks, initial)
            earlier = seen.get(signature)
            if earlier is None:
                seen[signature] = ranks
                if best_signature is None or signature < best_signature:
                    best_signature, best_ranks = signature, ranks
            else:
                atom_of_rank = [0] * len(earlier)
                for atom, rank in enumerate(earlier):
                    atom_of_rank[rank] = atom
                moved = {
                    atom: atom_of_rank[rank]
                    for atom, rank in enumerate(ranks)
                    if atom_of_rank[rank] != atom
                }
                # It serves every node above the first one whose explored
                # atom it moves, and that node itself.
                for depth, node in enumerate(path):
                    if node.absorb(moved):
                        del path[depth + 1 :]
                        break
                    if node.explored[-1] in moved:
                        break
        while path:
            atom = path[-1].next_atom()
            if atom is not None:
                # The atom keeps its cell's start; the rest of the cell
                # moves one place up and is relabelled.
                labels, cells = list(path[-1].labels), dict(path[-1].cells)
                start = labels[atom]
                changed = [i for i in cells[start] if i != atom]
                cells[start], cells[start + 1] = [atom], changed
                for i in changed:
                    labels[i] = start + 1
                break
            path.pop()
        else:
            return tuple(best_ranks)


def canonical_form(mol: MolGraph) -> str:
    """Canonical SMILES: identical for all atom relabelings of a graph."""
    if "canonical" not in mol._cache:
        mol._cache["canonical"] = write_smiles(mol, canonical_ranks(mol))
    return mol._cache["canonical"]


# ---------------------------------------------------------------------------
# Descriptors shared by evaluators and fingerprints
# ---------------------------------------------------------------------------


def largest_ring_size(mol: MolGraph) -> int:
    """Size of the largest smallest-ring through any ring bond (0 if acyclic)."""
    ring = ring_bond_flags(mol)
    adj = neighbors(mol)
    largest = 0
    for bi, bond in enumerate(mol.bonds):
        if not ring[bi]:
            continue
        # Shortest path between endpoints avoiding this bond closes the
        # smallest ring through it.
        dist = {bond.a: 0}
        queue = [bond.a]
        while queue and bond.b not in dist:
            nxt = []
            for node in queue:
                for other, obi in adj[node]:
                    if obi == bi or other in dist:
                        continue
                    dist[other] = dist[node] + 1
                    nxt.append(other)
            queue = nxt
        if bond.b in dist:
            largest = max(largest, dist[bond.b] + 1)
    return largest


def aromatic_ring_count(mol: MolGraph) -> int:
    """Independent cycles in the aromatic-bond subgraph."""
    arom_bonds = [b for b in mol.bonds if b.order == AROMATIC]
    if not arom_bonds:
        return 0
    nodes = set()
    for bond in arom_bonds:
        nodes.update(bond.pair)
    parent = {node: node for node in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(nodes)
    for bond in arom_bonds:
        ra, rb = find(bond.a), find(bond.b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return len(arom_bonds) - len(nodes) + components
