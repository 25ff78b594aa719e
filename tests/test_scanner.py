"""The SMILES scanner against the character loop it replaced.

``molgraph._parse_fragment`` reads its input with one ASCII token pattern.
Before, a loop classified each character with ``str.isdigit``/``isupper``/
``islower``, which also accept non-ASCII digits and letters. That loop and
its bracket parser are kept below as the reference: on ASCII text both give
the same atoms and raw bonds, or raise the same exception class. On any
other text the scanner raises a ``ParseError``, where the loop read some
non-ASCII digits as ring numbers or hydrogen counts and raised a bare
``ValueError`` on others. Both discard stereo marks, so a raw bond is
``(a, b, order)``.
"""

import re

from hypothesis import example, given, settings

from leadopt import molgraph as mg
from leadopt.molgraph import (
    AROMATIC_ELEMENTS,
    SINGLE,
    Atom,
    ParseError,
    RingError,
    SmilesSyntaxError,
)

from test_fuzz import smiles_like

ORGANIC_ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
_BOND_FOR_SYMBOL = mg._BOND_FOR_SYMBOL
_IMPLICIT = mg._IMPLICIT

_BRACKET_RE = re.compile(
    r"^(?P<isotope>\d+)?(?P<symbol>Cl|Br|[BCNOPSFI]|[bcnops])"
    r"(?P<stereo>@{1,2})?(?P<hcount>H\d*)?"
    r"(?P<charge>\+\+|--|[+-]\d*)?$"
)


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
    )


def _parse_fragment(text: str) -> tuple[list[Atom], list[tuple[int, int, int]]]:
    atoms: list[Atom] = []
    bonds: list[tuple[int, int, int]] = []
    bonded_pairs: set[tuple[int, int]] = set()
    prev: int | None = None
    branch_stack: list[int] = []
    pending_order: int | None = None
    ring_open: dict[int, tuple[int, int | None]] = {}

    def add_bond(a: int, b: int, order: int) -> None:
        pair = (min(a, b), max(a, b))
        if a == b:
            raise RingError("ring closure bonds an atom to itself")
        if pair in bonded_pairs:
            raise RingError(f"duplicate bond between atoms {pair}")
        bonded_pairs.add(pair)
        bonds.append((a, b, order))

    def add_atom(atom: Atom) -> None:
        nonlocal prev, pending_order
        atoms.append(atom)
        idx = len(atoms) - 1
        if prev is not None:
            order = pending_order if pending_order is not None else _IMPLICIT
            add_bond(prev, idx, order)
        elif pending_order is not None:
            raise SmilesSyntaxError("bond symbol before any atom")
        prev = idx
        pending_order = None

    def close_ring(digit: int) -> None:
        nonlocal pending_order
        if prev is None:
            raise SmilesSyntaxError("ring digit before any atom")
        if digit in ring_open:
            other, open_order = ring_open.pop(digit)
            order = pending_order
            if open_order is not None and order is not None and open_order != order:
                raise RingError(f"conflicting bond symbols on ring digit {digit}")
            final = order if order is not None else open_order
            add_bond(other, prev, final if final is not None else _IMPLICIT)
        else:
            ring_open[digit] = (prev, pending_order)
        pending_order = None

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


def _outcome(parse, text: str):
    """The (atoms, bonds) a scanner gives, or the class of what it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=1000)
@given(text=smiles_like)
@example("Clc1ccc(Br)c(c1)[C@@H]1CC/C=C\\C%12.[NH4+]")
@example("C1CCCCC١")
@example("[CH٤]")
@example("C²CC")
def test_scanner_matches_the_character_loop_on_ascii(text):
    actual = _outcome(mg._parse_fragment, text)
    if text.isascii():
        assert actual == _outcome(_parse_fragment, text)
    else:
        assert isinstance(actual, type) and issubclass(actual, ParseError)
