"""Heavy-atom molecular graphs parsed from a bounded SMILES subset.

The subset covers the organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
their aromatic lowercase forms, bracket atoms with charge / explicit hydrogen
counts / stereo marks, branches, bond symbols ``- = # :``, and ring-closure
digits including ``%nn``. Stereo marks (``@``, ``@@``, ``/``, ``\\``) are
parsed and kept as opaque tags but ignored by validation, canonicalization,
and fingerprints. Implicit hydrogens are derived from the valence table and
never stored as atoms. Isotopes, atom maps, and multi-fragment molecules are
rejected (a flag keeps the largest fragment instead).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

# Bond order codes. AROMATIC marks bonds inside perceived aromatic rings;
# validation resolves them to an alternating single/double assignment.
SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, 4

ORGANIC_ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
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

_BOND_FOR_SYMBOL = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_SYMBOL_FOR_BOND = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}

_BRACKET_RE = re.compile(
    r"^(?P<isotope>\d+)?(?P<symbol>Cl|Br|[BCNOPSFI]|[bcnops])"
    r"(?P<stereo>@{1,2})?(?P<hcount>H\d*)?"
    r"(?P<charge>\+\+|--|[+-]\d*)?$"
)


class ParseError(ValueError):
    """Base class for SMILES parsing failures."""


class SmilesSyntaxError(ParseError):
    """Bad token, unbalanced parentheses, or unsupported notation."""


class RingError(ParseError):
    """Unmatched, conflicting, or duplicated ring-closure digits."""


class FragmentError(ParseError):
    """Dot-separated multi-fragment input without the keep-largest flag."""


class ValenceError(ParseError):
    """Parsed structure violates the allowed-valence table."""


class KekulizeError(ParseError):
    """Aromatic subgraph admits no alternating single/double assignment."""


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
    stereo_tag: str | None = None

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
    stereo_tag: str | None = None

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

    Perception results (adjacency, ring membership, the alternating
    assignment for aromatic bonds, hydrogen counts) are computed lazily and
    memoized; instances are safe to share across threads.
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
            if not (0 <= bond.a < n and 0 <= bond.b < n):
                raise ValueError(f"bond {bond.pair} out of range")
            if bond.pair in seen:
                raise ValueError(f"duplicate bond {bond.pair}")
            seen.add(bond.pair)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[tuple[int, str, str], ...]


# ---------------------------------------------------------------------------
# Perception helpers (adjacency, rings, kekulization, hydrogens)
# ---------------------------------------------------------------------------


def neighbors(mol: MolGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Adjacency list: for each atom, (neighbor index, bond index) pairs."""
    if "adj" not in mol._cache:
        adj = [[] for _ in mol.atoms]
        for bi, bond in enumerate(mol.bonds):
            adj[bond.a].append((bond.b, bi))
            adj[bond.b].append((bond.a, bi))
        mol._cache["adj"] = tuple(tuple(sorted(a)) for a in adj)
    return mol._cache["adj"]


def ring_bond_flags(mol: MolGraph) -> tuple[bool, ...]:
    """True for every bond that lies on a cycle (i.e. is not a bridge)."""
    if "ring_bonds" in mol._cache:
        return mol._cache["ring_bonds"]
    adj = neighbors(mol)
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
    flags = tuple(not is_bridge[i] for i in range(len(mol.bonds)))
    mol._cache["ring_bonds"] = flags
    return flags


def ring_atom_flags(mol: MolGraph) -> tuple[bool, ...]:
    flags = [False] * len(mol.atoms)
    for bond, in_ring in zip(mol.bonds, ring_bond_flags(mol)):
        if in_ring:
            flags[bond.a] = True
            flags[bond.b] = True
    return tuple(flags)


def _sigma_valence(mol: MolGraph, idx: int) -> int:
    """Bond-order sum counting aromatic bonds as single."""
    total = 0
    for _, bi in neighbors(mol)[idx]:
        order = mol.bonds[bi].order
        total += 1 if order == AROMATIC else order
    return total


def _pi_need(mol: MolGraph, idx: int) -> int:
    """Whether an aromatic atom must receive one double bond.

    Organic-subset conventions: aromatic C takes one double bond unless it
    already carries an explicit double/triple bond (exocyclic carbonyls);
    two-connected n/p are pyridine-like (one double bond), three-connected
    are pyrrole-like (none); o/s contribute lone pairs only. Bracket atoms
    decide by whether sigma valence plus one lands in the allowed table.
    """
    atom = mol.atoms[idx]
    adj = neighbors(mol)[idx]
    if any(mol.bonds[bi].order in (DOUBLE, TRIPLE) for _, bi in adj):
        return 0
    if atom.explicit_h is not None or atom.formal_charge != 0:
        sigma = _sigma_valence(mol, idx) + (atom.explicit_h or 0)
        allowed = allowed_valences(atom.element, atom.formal_charge)
        return 1 if sigma + 1 in allowed else 0
    degree = len(adj)
    if atom.element in ("C", "B"):
        return 1 if atom.element == "C" or degree == 2 else 0
    if atom.element in ("N", "P"):
        return 1 if degree == 2 else 0
    return 0  # O, S


def _kekule_assignment(mol: MolGraph) -> tuple[int, ...] | None:
    """Match pi-needing aromatic atoms pairwise along aromatic bonds.

    Returns per-bond orders with every aromatic bond resolved to single or
    double, or None when no perfect matching exists.
    """
    need = {
        i
        for i, atom in enumerate(mol.atoms)
        if atom.aromatic and _pi_need(mol, i) == 1
    }
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

    # Most-constrained atoms (fewest partners) are matched first, i.e. go
    # last in the worklist.
    if not backtrack(sorted(need, key=lambda i: -len(arom_adj[i]))):
        return None
    double_bonds = set(matched_bond.values())
    orders = []
    for bi, bond in enumerate(mol.bonds):
        if bond.order == AROMATIC:
            orders.append(DOUBLE if bi in double_bonds else SINGLE)
        else:
            orders.append(bond.order)
    return tuple(orders)


def _perceive(mol: MolGraph) -> tuple[tuple[int, ...] | None, list[tuple[int, str, str]]]:
    """Resolve aromatic bonds; returns (kekule orders, violations)."""
    if "kekule" in mol._cache:
        return mol._cache["kekule"]
    violations: list[tuple[int, str, str]] = []
    ring_bonds = ring_bond_flags(mol)
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
    if violations:
        result = (None, violations)
    else:
        orders = _kekule_assignment(mol)
        if orders is None:
            bad = [i for i, a in enumerate(mol.atoms) if a.aromatic]
            result = (
                None,
                [(bad[0] if bad else -1, "kekulize", "no alternating bond assignment for aromatic system")],
            )
        else:
            result = (orders, [])
    mol._cache["kekule"] = result
    return result


def kekule_orders(mol: MolGraph) -> tuple[int, ...]:
    """Per-bond orders with aromatic bonds resolved; raises KekulizeError."""
    orders, violations = _perceive(mol)
    if orders is None:
        raise KekulizeError(violations[0][2])
    return orders


def hydrogen_counts(mol: MolGraph) -> tuple[int, ...]:
    """Total hydrogens per atom: explicit where given, else derived."""
    if "hcounts" in mol._cache:
        return mol._cache["hcounts"]
    orders, _ = _perceive(mol)
    adj = neighbors(mol)
    counts = []
    for idx, atom in enumerate(mol.atoms):
        if atom.explicit_h is not None:
            counts.append(atom.explicit_h)
            continue
        bondsum = 0
        for _, bi in adj[idx]:
            order = mol.bonds[bi].order
            if order == AROMATIC:
                order = orders[bi] if orders is not None else SINGLE
            bondsum += order
        allowed = allowed_valences(atom.element, atom.formal_charge)
        target = min((v for v in allowed if v >= bondsum), default=bondsum)
        counts.append(max(0, target - bondsum))
    result = tuple(counts)
    mol._cache["hcounts"] = result
    return result


def free_valence(mol: MolGraph, idx: int) -> int:
    """How many additional single bonds the atom can accept."""
    atom = mol.atoms[idx]
    orders, _ = _perceive(mol)
    bondsum = 0
    for _, bi in neighbors(mol)[idx]:
        order = mol.bonds[bi].order
        if order == AROMATIC:
            order = orders[bi] if orders is not None else SINGLE
        bondsum += order
    cap = max(allowed_valences(atom.element, atom.formal_charge))
    if atom.explicit_h is not None:
        bondsum += atom.explicit_h
    return max(0, cap - bondsum)


def validate(mol: MolGraph) -> ValidityReport:
    """Check connectivity, aromatic perception, and per-atom valence."""
    if "validity" not in mol._cache:
        mol._cache["validity"] = _check_validity(mol)
    return mol._cache["validity"]


def _check_validity(mol: MolGraph) -> ValidityReport:
    violations: list[tuple[int, str, str]] = []
    if not mol.atoms:
        return ValidityReport(False, ((-1, "empty", "molecule has no atoms"),))

    adj = neighbors(mol)
    seen = {0}
    queue = [0]
    while queue:
        node = queue.pop()
        for other, _ in adj[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    for idx in range(len(mol.atoms)):
        if idx not in seen:
            violations.append((idx, "disconnected", "atom unreachable from atom 0"))
            break

    orders, arom_violations = _perceive(mol)
    violations.extend(arom_violations)

    if orders is not None:
        for idx, atom in enumerate(mol.atoms):
            bondsum = sum(orders[bi] for _, bi in adj[idx])
            allowed = allowed_valences(atom.element, atom.formal_charge)
            if atom.explicit_h is None:
                if bondsum > max(allowed):
                    violations.append(
                        (idx, "valence", f"{atom.element} bond-order sum {bondsum} exceeds {max(allowed)}")
                    )
            else:
                total = bondsum + atom.explicit_h
                if total not in allowed:
                    violations.append(
                        (idx, "valence", f"{atom.element} total valence {total} not in {allowed}")
                    )
    return ValidityReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_IMPLICIT = 0  # provisional order for bonds written without a symbol


def _parse_bracket(body: str) -> Atom:
    match = _BRACKET_RE.match(body)
    if match is None:
        raise SmilesSyntaxError(f"bad bracket atom [{body}]")
    if match.group("isotope"):
        raise SmilesSyntaxError("isotopes are unsupported")
    symbol = match.group("symbol")
    aromatic = symbol.islower()
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
    if aromatic and element not in AROMATIC_ELEMENTS:
        raise SmilesSyntaxError(f"{element} cannot be aromatic")
    return Atom(
        element=element,
        formal_charge=charge,
        explicit_h=explicit_h,
        aromatic=aromatic,
        stereo_tag=match.group("stereo"),
    )


def _parse_fragment(text: str) -> tuple[list[Atom], list[tuple[int, int, int, str | None]]]:
    """Parse one connected SMILES fragment into atoms and raw bonds."""
    atoms: list[Atom] = []
    bonds: list[tuple[int, int, int, str | None]] = []
    bonded_pairs: set[tuple[int, int]] = set()
    prev: int | None = None
    branch_stack: list[int] = []
    pending_order: int | None = None
    pending_stereo: str | None = None
    ring_open: dict[int, tuple[int, int | None, str | None]] = {}

    def add_bond(a: int, b: int, order: int, stereo: str | None) -> None:
        pair = (min(a, b), max(a, b))
        if a == b:
            raise RingError("ring closure bonds an atom to itself")
        if pair in bonded_pairs:
            raise RingError(f"duplicate bond between atoms {pair}")
        bonded_pairs.add(pair)
        bonds.append((a, b, order, stereo))

    def add_atom(atom: Atom) -> None:
        nonlocal prev, pending_order, pending_stereo
        atoms.append(atom)
        idx = len(atoms) - 1
        if prev is not None:
            order = pending_order if pending_order is not None else _IMPLICIT
            add_bond(prev, idx, order, pending_stereo)
        elif pending_order is not None:
            raise SmilesSyntaxError("bond symbol before any atom")
        prev = idx
        pending_order = None
        pending_stereo = None

    def close_ring(digit: int) -> None:
        nonlocal pending_order, pending_stereo
        if prev is None:
            raise SmilesSyntaxError("ring digit before any atom")
        if digit in ring_open:
            other, open_order, open_stereo = ring_open.pop(digit)
            order = pending_order
            if open_order is not None and order is not None and open_order != order:
                raise RingError(f"conflicting bond symbols on ring digit {digit}")
            final = order if order is not None else open_order
            add_bond(other, prev, final if final is not None else _IMPLICIT,
                     pending_stereo or open_stereo)
        else:
            ring_open[digit] = (prev, pending_order, pending_stereo)
        pending_order = None
        pending_stereo = None

    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "(":
            if prev is None:
                raise SmilesSyntaxError("branch before any atom")
            branch_stack.append(prev)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError("unbalanced ')'")
            if pending_order is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'")
            prev = branch_stack.pop()
            i += 1
        elif ch in _BOND_FOR_SYMBOL:
            if pending_order is not None:
                raise SmilesSyntaxError("two consecutive bond symbols")
            pending_order = _BOND_FOR_SYMBOL[ch]
            i += 1
        elif ch in ("/", "\\"):
            if pending_order is not None:
                raise SmilesSyntaxError("two consecutive bond symbols")
            pending_order = SINGLE
            pending_stereo = ch
            i += 1
        elif ch.isdigit():
            close_ring(int(ch))
            i += 1
        elif ch == "%":
            chunk = text[i + 1 : i + 3]
            if len(chunk) != 2 or not chunk.isdigit():
                raise SmilesSyntaxError("'%' must be followed by two digits")
            close_ring(int(chunk))
            i += 3
        elif ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesSyntaxError("unclosed bracket atom")
            add_atom(_parse_bracket(text[i + 1 : end]))
            i = end + 1
        elif ch.isupper():
            symbol = ch
            if text[i : i + 2] in ("Cl", "Br"):
                symbol = text[i : i + 2]
            if symbol not in ORGANIC_ELEMENTS:
                raise SmilesSyntaxError(f"unknown element {symbol!r}")
            add_atom(Atom(element=symbol))
            i += len(symbol)
        elif ch.islower():
            element = ch.upper()
            if element not in AROMATIC_ELEMENTS:
                raise SmilesSyntaxError(f"unknown aromatic atom {ch!r}")
            add_atom(Atom(element=element, aromatic=True))
            i += 1
        else:
            raise SmilesSyntaxError(f"unexpected character {ch!r} at position {i}")

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


def _resolve_orders(atoms: list[Atom], raw_bonds: list[tuple[int, int, int, str | None]]) -> MolGraph:
    """Resolve implicit bond orders, demoting non-ring aromatic contacts."""
    provisional = []
    for a, b, order, stereo in raw_bonds:
        if order == _IMPLICIT:
            order = AROMATIC if atoms[a].aromatic and atoms[b].aromatic else SINGLE
        provisional.append(Bond(a, b, order, stereo))
    mol = MolGraph(tuple(atoms), tuple(provisional))
    ring = ring_bond_flags(mol)
    resolved = []
    changed = False
    for bi, ((a, b, order, stereo), bond) in enumerate(zip(raw_bonds, provisional)):
        if order == _IMPLICIT and bond.order == AROMATIC and not ring[bi]:
            # Implicit bond between aromatic atoms outside any ring is a
            # plain single bond (e.g. the biphenyl linker).
            resolved.append(Bond(a, b, SINGLE, stereo))
            changed = True
        else:
            resolved.append(bond)
    return MolGraph(tuple(atoms), tuple(resolved)) if changed else mol


def parse_smiles(text: str, keep_largest_fragment: bool = False) -> MolGraph:
    """Parse a SMILES string into a validated MolGraph.

    Raises SmilesSyntaxError, RingError, FragmentError, KekulizeError, or
    ValenceError; never silently repairs the input.
    """
    stripped = text.strip()
    if not stripped:
        raise SmilesSyntaxError("empty SMILES")
    if "." in stripped:
        if not keep_largest_fragment:
            raise FragmentError("multi-fragment SMILES rejected (pass keep_largest_fragment=True)")
        parts = [p for p in stripped.split(".") if p]
        if not parts:
            raise SmilesSyntaxError("empty SMILES")
        graphs = [_resolve_orders(*_parse_fragment(part)) for part in parts]
        mol = max(graphs, key=len)
    else:
        mol = _resolve_orders(*_parse_fragment(stripped))

    orders, violations = _perceive(mol)
    if orders is None:
        raise KekulizeError(violations[0][2])
    report = validate(mol)
    if not report.valid:
        idx, _, message = report.violations[0]
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
    (used by canonical_form to fix the output string).
    """
    if not mol.atoms:
        raise ValueError("cannot write an empty molecule")
    if ranks is None:
        ranks = tuple(range(len(mol.atoms)))
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

    def emit(node: int) -> str:
        parts = [_atom_token(mol, node)]
        for bi in digits_at[node]:
            parts.append(_bond_token(mol, bi) + digit_token(bi))
        children = tree_children[node]
        for pos, (child, bi) in enumerate(children):
            body = _bond_token(mol, bi) + emit(child)
            parts.append(f"({body})" if pos < len(children) - 1 else body)
        return "".join(parts)

    limit = sys.getrecursionlimit()
    if len(mol.atoms) + 100 > limit:
        sys.setrecursionlimit(len(mol.atoms) + 200)
    try:
        return emit(start)
    finally:
        sys.setrecursionlimit(limit)


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
        )
        for i, atom in enumerate(mol.atoms)
    ]


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(mol: MolGraph, ranks: list[int]) -> list[int]:
    adj = neighbors(mol)
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


def canonical_ranks(mol: MolGraph) -> tuple[int, ...]:
    """Permutation-invariant atom ranking via iterative refinement.

    Remaining ties after refinement are broken by individualizing each tied
    atom in the lowest tied class and keeping the branch with the smallest
    final signature, so automorphic choices collapse to one result.
    """
    initial = _initial_keys(mol)

    def solve(ranks: list[int]) -> tuple[tuple, list[int]]:
        ranks = _refine(mol, ranks)
        classes: dict[int, list[int]] = {}
        for i, rank in enumerate(ranks):
            classes.setdefault(rank, []).append(i)
        tied = sorted(rank for rank, members in classes.items() if len(members) > 1)
        if not tied:
            return _signature(mol, ranks, initial), ranks
        best: tuple[tuple, list[int]] | None = None
        for atom in classes[tied[0]]:
            keys = [(ranks[i], 0 if i == atom else 1) for i in range(len(ranks))]
            candidate = solve(_dense_ranks(keys))
            if best is None or candidate[0] < best[0]:
                best = candidate
        return best

    _, ranks = solve(_dense_ranks(initial))
    return tuple(ranks)


def canonical_form(mol: MolGraph) -> str:
    """Canonical SMILES: identical for all atom relabelings of a graph."""
    if "canonical" not in mol._cache:
        mol._cache["canonical"] = write_smiles(mol, canonical_ranks(mol))
    return mol._cache["canonical"]


# ---------------------------------------------------------------------------
# Descriptors shared by evaluators and fingerprints
# ---------------------------------------------------------------------------


def hetero_fraction(mol: MolGraph) -> float:
    """Fraction of heavy atoms that are not carbon."""
    if not mol.atoms:
        return 0.0
    hetero = sum(1 for atom in mol.atoms if atom.element != "C")
    return hetero / len(mol.atoms)


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
