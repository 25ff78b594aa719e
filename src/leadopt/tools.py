"""Heterogeneous lead-editing tools behind one invocation surface.

Four built-in simulated editors with distinct behavior profiles stand in for
instruction-following generative models at desk scale: a terminal-substituent
swapper (small edits), a single-atom mutator, a ring appender/contractor
(larger edits), and a flaky swapper that emits corrupted strings with a
probability that drops when the instruction carries failure feedback.
External tools plug in through a wire protocol; their replies are mined for
<SMILES>...</SMILES> spans and never trusted beyond that.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Callable

from . import evaluate as ev
from .molgraph import (
    ALLOWED_VALENCE,
    SINGLE,
    Atom,
    Bond,
    MolGraph,
    allowed_valences,
    bond_order_sums,
    free_valence,
    neighbors,
    ring_atom_flags,
    validate,
    write_smiles,
)

INVALID_STRUCTURE = "invalid_structure"
SIMILARITY_VIOLATION = "similarity_violation"
NO_IMPROVEMENT = "no_improvement"
EVALUATOR_ERROR = "evaluator_error"

FAILURE_LABELS = {
    INVALID_STRUCTURE: "invalid SMILES",
    SIMILARITY_VIOLATION: "similarity constraint violated",
    NO_IMPROVEMENT: "no property improvement",
    EVALUATOR_ERROR: "evaluation failed",
}

# One instruction template per editing style, indexed 0-5.
EDIT_STYLES = ("substitute", "add", "remove", "rearrange", "conservative", "aggressive")

MAX_EMBEDDED_FAILURES = 2

_SMILES_SPAN = re.compile(r"<SMILES>(.*?)</SMILES>", re.DOTALL)


class ToolUnavailableError(RuntimeError):
    """External tool transport failed."""


@dataclass(frozen=True)
class ToolProfile:
    """Behavior profile of a built-in simulated editor.

    competence is the probability of returning the proposal that scores best
    on the objective surrogate instead of a random one. The element palette
    is the tool's vocabulary for swaps/attachments/mutations, which is what
    gives each editor molecule-dependent strengths. p_fail corrupts the
    output string; each failure case embedded in the instruction multiplies
    it by fail_damping (never below fail_floor). These four lie in [0, 1].
    """

    edit_kind: str  # swap | mutate | ring
    competence: float = 0.7
    palette: tuple[str, ...] = ("C", "N", "O", "F", "Cl", "Br", "S")
    p_fail: float = 0.0
    fail_damping: float = 0.5
    fail_floor: float = 0.05
    aggressive_edits: int = 1  # edits applied under the "aggressive" template

    def __post_init__(self):
        if self.edit_kind not in _FAMILIES_BY_KIND_AND_STYLE:
            raise ValueError(f"unknown edit_kind {self.edit_kind!r}")
        unknown = [e for e in self.palette if e not in ALLOWED_VALENCE]
        if unknown:
            raise ValueError(f"unsupported palette elements {unknown}")
        if self.aggressive_edits < 1:
            raise ValueError("aggressive_edits must be >= 1")
        for name in ("competence", "p_fail", "fail_damping", "fail_floor"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ExternalTool:
    """Transport binding: request document in, free response text out."""

    transport: Callable[[dict], str]


@dataclass(frozen=True)
class ToolSpec:
    tool_id: str
    description: str
    prompt_templates: tuple[str, ...]
    kind: ToolProfile | ExternalTool

    def __post_init__(self):
        if len(self.prompt_templates) != 6:
            raise ValueError("exactly six prompt templates required")
        for template in self.prompt_templates:
            try:
                template.format(goal="")
            except (KeyError, IndexError, ValueError, AttributeError) as exc:
                raise ValueError(
                    f"prompt template {template!r:.80} must use only the {{goal}} placeholder ({exc!r})"
                ) from exc


@dataclass(frozen=True)
class FailedCase:
    smiles: str
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class Instruction:
    template_index: int
    property_id: str
    direction: str
    base_text: str
    failed_cases: tuple[FailedCase, ...] = ()

    def text(self) -> str:
        if not self.failed_cases:
            return self.base_text
        lines = [self.base_text, "", "Poor earlier candidates to avoid:"]
        for case in self.failed_cases:
            label = FAILURE_LABELS.get(case.kind, case.kind)
            suffix = f" ({case.detail})" if case.detail else ""
            lines.append(f"- {case.smiles}: {label}{suffix}")
        return "\n".join(lines)


def default_templates(action_hint: str) -> tuple[str, ...]:
    """Six indexed instruction templates varying the editing style."""
    bodies = (
        f"Substitute one peripheral group of the molecule ({action_hint}) to {{goal}}.",
        f"Add a small substituent to the molecule ({action_hint}) to {{goal}}.",
        f"Remove a peripheral atom from the molecule ({action_hint}) to {{goal}}.",
        f"Rearrange a peripheral substituent of the molecule ({action_hint}) to {{goal}}.",
        f"Make the most conservative edit available ({action_hint}) that will {{goal}}.",
        f"Make a bolder structural edit ({action_hint}) to {{goal}}.",
    )
    tail = " Keep the core scaffold intact and return the result wrapped in <SMILES>...</SMILES>."
    return tuple(body + tail for body in bodies)


def build_instruction(
    spec: ToolSpec,
    template_index: int,
    objective: ev.PropertySpec,
    failed_cases: list[FailedCase] | tuple[FailedCase, ...] = (),
) -> Instruction:
    """Render a template with the objective and optional failure feedback.

    failed_cases are embedded in the given order (callers pass most recent
    first) and capped at MAX_EMBEDDED_FAILURES.
    """
    if not 0 <= template_index <= 5:
        raise IndexError(f"template index {template_index} out of range 0-5")
    verb = "increase" if objective.direction == ev.MAXIMIZE else "decrease"
    base = spec.prompt_templates[template_index].format(goal=f"{verb} {objective.id}")
    return Instruction(
        template_index=template_index,
        property_id=objective.id,
        direction=objective.direction,
        base_text=base,
        failed_cases=tuple(failed_cases[:MAX_EMBEDDED_FAILURES]),
    )


# ---------------------------------------------------------------------------
# Seeded graph edits
# ---------------------------------------------------------------------------


def _plain(atom: Atom) -> bool:
    return not atom.aromatic and atom.formal_charge == 0 and atom.explicit_h is None


def _terminal_indices(mol: MolGraph) -> list[int]:
    adj = neighbors(mol)
    out = []
    for i, atom in enumerate(mol.atoms):
        if len(adj[i]) != 1 or not _plain(atom):
            continue
        if mol.bonds[adj[i][0][1]].order == SINGLE:
            out.append(i)
    return out


def _attachment_points(mol: MolGraph) -> list[int]:
    return [
        i
        for i, atom in enumerate(mol.atoms)
        if atom.explicit_h is None and free_valence(mol, i) >= 1
    ]


def _remove_atom(atoms, bonds, idx: int, new_bonds: list[Bond] = ()) -> MolGraph:
    def remap(i: int) -> int:
        return i - 1 if i > idx else i

    return MolGraph(
        tuple(a for i, a in enumerate(atoms) if i != idx),
        tuple(
            Bond(remap(b.a), remap(b.b), b.order)
            for b in (*bonds, *new_bonds)
            if idx not in b.pair
        ),
    )


@dataclass
class _EditOption:
    """One concrete edit: a predicted descriptor record plus a builder.

    `graph` is built at most once, when scored without a record or picked.
    It may be invalid: `remove` and `move` turn `Cn1cccc1` into `n1cccc1`.
    Options are memoized on the molecule they edit (see `_one_edit`), so
    every tool call on that molecule shares the built graphs and their
    records. A builder therefore captures the molecule's atom and bond
    tuples, never the molecule: a reference back from its own memo would
    make a cycle, and only a full garbage collection would free it.
    """

    descriptors: ev.Descriptors | None  # None: score the built graph
    build: Callable[[], MolGraph]

    @functools.cached_property
    def graph(self) -> MolGraph:
        return self.build()


def _element_change_options(
    mol: MolGraph, d: ev.Descriptors, indices, palette
) -> list[_EditOption]:
    options, palette_atoms = [], [Atom(element) for element in palette]
    atoms, bonds = mol.atoms, mol.bonds
    for idx in indices:
        old = atoms[idx]
        for new in palette_atoms:
            if new.element == old.element:
                continue

            def build(idx=idx, new=new):
                return MolGraph(atoms[:idx] + (new,) + atoms[idx + 1 :], bonds)

            options.append(_EditOption(d.edited(old, new), build))
    return options


def _swap_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    return _element_change_options(mol, d, _terminal_indices(mol), palette)


def _attach_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    options, palette_atoms = [], [Atom(element) for element in palette]
    atoms, bonds = mol.atoms, mol.bonds
    for anchor in _attachment_points(mol):
        for new in palette_atoms:

            def build(anchor=anchor, new=new):
                return MolGraph(atoms + (new,), bonds + (Bond(anchor, len(atoms), SINGLE),))

            options.append(_EditOption(d.edited(added=new), build))
    return options


def _remove_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    if len(mol.atoms) <= 2:
        return []
    options, atoms, bonds = [], mol.atoms, mol.bonds
    for idx in _terminal_indices(mol):
        options.append(_EditOption(d.edited(removed=atoms[idx]), lambda idx=idx: _remove_atom(atoms, bonds, idx)))
    return options


def _move_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    adj = neighbors(mol)
    options, atoms, bonds = [], mol.atoms, mol.bonds
    anchors = _attachment_points(mol)
    for idx in _terminal_indices(mol):
        neighbor = adj[idx][0][0]
        for anchor in anchors:
            if anchor in (idx, neighbor):
                continue

            def build(idx=idx, anchor=anchor):
                trimmed = _remove_atom(atoms, bonds, idx)
                new_anchor = anchor - 1 if anchor > idx else anchor
                return MolGraph(
                    trimmed.atoms + (Atom(atoms[idx].element),),
                    trimmed.bonds + (Bond(new_anchor, len(trimmed.atoms), SINGLE),),
                )

            # Element multiset is unchanged, so every descriptor-level
            # surrogate is too: a purely structural shuffle.
            options.append(_EditOption(d, build))
    return options


def _mutate_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    sums = bond_order_sums(mol)
    adj = neighbors(mol)
    internal = [
        i for i, atom in enumerate(mol.atoms) if _plain(atom) and len(adj[i]) >= 2
    ]
    pool = internal or [i for i, a in enumerate(mol.atoms) if _plain(a) and adj[i]]
    options = []
    for idx in pool:
        allowed = [e for e in palette if max(allowed_valences(e)) >= sums[idx]]
        options.extend(_element_change_options(mol, d, [idx], allowed))
    return options


def _ring_pairs(mol: MolGraph) -> list[tuple[int, int]]:
    """Unbonded pairs of open atoms 2-4 bonds apart, in atom order."""
    adj = neighbors(mol)
    open_atoms = _attachment_points(mol)
    bonded = {b.pair for b in mol.bonds}
    pairs = []
    for position, start in enumerate(open_atoms):
        distances = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for other, _ in adj[node]:
                    if other not in distances:
                        distances[other] = distances[node] + 1
                        nxt.append(other)
            frontier = nxt
        for partner in open_atoms[position + 1 :]:
            if 2 <= distances.get(partner, 99) <= 4 and (start, partner) not in bonded:
                pairs.append((start, partner))
    return pairs


def _closed_ring(atoms, bonds, start: int, partner: int, length: int) -> MolGraph:
    base = len(atoms)
    new_bonds = [Bond(start, base, SINGLE)]
    for k in range(length - 1):
        new_bonds.append(Bond(base + k, base + k + 1, SINGLE))
    new_bonds.append(Bond(base + length - 1, partner, SINGLE))
    return MolGraph(atoms + tuple(Atom("C") for _ in range(length)), bonds + tuple(new_bonds))


def _ring_append_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    """Close a new carbon ring between two open atoms a short path apart.

    Bridging existing path atoms into a fresh cycle flips their ring
    membership, which is what makes this the large-edit profile. Ring
    geometry is not a descriptor-level delta, so each option is scored on
    its graph, built lazily when it is scored or picked.

    This is the one family that draws from rng: four of the pairs when
    there are more. The sample is drawn on every call, so a tool step draws
    the same numbers in the same order whatever calls came before it on the
    molecule. Only the deterministic part is memoized on the molecule: one
    option per (start, partner, length), grouped by pair, so each ring
    graph is built, perceived and scored once per molecule. A sample of the
    groups picks what a sample of the pairs did, since it depends only on
    the population's length.
    """
    groups = mol._cache.get("ring_append")
    if groups is None:
        groups = mol._cache["ring_append"] = [
            tuple(
                _EditOption(None, functools.partial(_closed_ring, mol.atoms, mol.bonds, start, partner, length))
                for length in (1, 2, 3)
            )
            for start, partner in _ring_pairs(mol)
        ]
    if len(groups) > 4:
        groups = rng.sample(groups, 4)
    return [option for group in groups for option in group]


def _ring_contract_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    adj = neighbors(mol)
    ring = ring_atom_flags(mol)
    bonded = {b.pair for b in mol.bonds}
    options, atoms, bonds = [], mol.atoms, mol.bonds
    for i, atom in enumerate(atoms):
        if not ring[i] or not _plain(atom) or len(adj[i]) != 2:
            continue
        (n1, b1), (n2, b2) = adj[i]
        if mol.bonds[b1].order != SINGLE or mol.bonds[b2].order != SINGLE:
            continue
        if (min(n1, n2), max(n1, n2)) in bonded:
            continue
        options.append(
            _EditOption(None, lambda i=i, n1=n1, n2=n2: _remove_atom(atoms, bonds, i, [Bond(n1, n2, SINGLE)]))
        )
    return options


_FAMILIES_BY_KIND_AND_STYLE = {
    "swap": {
        "substitute": ("swap", "attach"),
        "add": ("attach", "swap"),
        "remove": ("remove", "swap"),
        "rearrange": ("move", "swap"),
        "conservative": ("swap", "attach"),
        "aggressive": ("attach", "swap"),
    },
    "mutate": {style: ("mutate", "swap") for style in EDIT_STYLES},
    "ring": {
        "substitute": ("ring_append", "ring_contract"),
        "add": ("ring_append", "ring_contract"),
        "remove": ("ring_contract", "ring_append"),
        "rearrange": ("ring_contract", "ring_append"),
        "conservative": ("ring_contract", "ring_append"),
        "aggressive": ("ring_append", "ring_contract"),
    },
}

_FAMILY_BUILDERS = {
    "swap": _swap_options,
    "attach": _attach_options,
    "remove": _remove_options,
    "move": _move_options,
    "mutate": _mutate_options,
    "ring_append": _ring_append_options,
    "ring_contract": _ring_contract_options,
}


def _option_score(option: _EditOption, property_id: str, sign: float) -> float:
    d = option.descriptors
    if d is None:
        d = ev.descriptors(option.graph, property_id)
    return sign * ev.predict(property_id, d)


def _one_edit(
    profile: ToolProfile,
    style: str,
    mol: MolGraph,
    rng: random.Random,
    instruction: Instruction,
) -> MolGraph | None:
    """Pick one edit from the profile's option space.

    With probability `competence` the editor takes the option whose
    predicted surrogate value is best for the objective (simulating a
    capable instruction-follower); otherwise, or when the property has no
    builtin surrogate, it takes a random applicable option.

    The pick is the search's one validity check, and it is needed: taking a
    terminal atom off a bracket atom or an aromatic n, p or b leaves an
    invalid graph. Scoring ranks such options too; (-score, position) is a
    total order, so skipping them here picks what leaving them out would.

    Each family's option list is memoized on the molecule, keyed by
    (family, palette, property): the records of element changes,
    attachments, removals and moves are edits of the molecule's record for
    the property, whose ring fields differ by property. Every option is a
    pure function of that key, so repeated tool calls on one molecule rank
    and pick among equal options. `ring_append` draws from rng and is
    called every time; it memoizes its own deterministic part.
    """
    d = ev.descriptors(mol, instruction.property_id)
    known_property = instruction.property_id in ev.BUILTIN_SURROGATES
    sign = 1.0 if instruction.direction == ev.MAXIMIZE else -1.0
    for family in _FAMILIES_BY_KIND_AND_STYLE[profile.edit_kind][style]:
        key = (family, profile.palette, instruction.property_id)
        options = mol._cache.get(key)
        if options is None:
            options = _FAMILY_BUILDERS[family](mol, d, profile.palette, rng)
            if family != "ring_append":  # its sample is drawn on every call
                mol._cache[key] = options
        if not options:
            continue
        if known_property and rng.random() < profile.competence:
            scored = sorted(
                (-_option_score(option, instruction.property_id, sign), position)
                for position, option in enumerate(options)
            )
            order = [position for _, position in scored]
        else:
            order = list(range(len(options)))
            rng.shuffle(order)
        for position in order:
            graph = options[position].graph
            if validate(graph).valid:
                return graph
    return None


def effective_failure_probability(profile: ToolProfile, n_failed_cases: int) -> float:
    """Corruption probability after damping by embedded failure feedback."""
    if profile.p_fail <= 0:
        return 0.0
    damped = profile.p_fail * profile.fail_damping**n_failed_cases
    return max(profile.fail_floor, damped)


def simulated_tool_step(
    profile: ToolProfile,
    mol: MolGraph,
    instruction: Instruction,
    seed: int,
) -> MolGraph | str:
    """Apply one seeded profile-specific edit; may return a corrupted string."""
    rng = random.Random(seed)
    style = EDIT_STYLES[instruction.template_index]
    edits = profile.aggressive_edits if style == "aggressive" else 1

    result = mol
    for _ in range(edits):
        nxt = _one_edit(profile, style, result, rng, instruction)
        if nxt is None:
            break
        result = nxt
    # An inapplicable edit returns the input unchanged, which the caller's
    # checks will fail as no-improvement.

    p_fail = effective_failure_probability(profile, len(instruction.failed_cases))
    if p_fail > 0 and rng.random() < p_fail:
        return write_smiles(result) + "("  # unbalanced branch: guaranteed invalid
    return result


def extract_candidates(payload: str) -> list[str]:
    """All <SMILES>...</SMILES> spans, verbatim; total on arbitrary text."""
    if not isinstance(payload, str):
        return []
    return _SMILES_SPAN.findall(payload)


def invoke(spec: ToolSpec, instruction: Instruction, mol: MolGraph, seed: int) -> list[str]:
    """One tool invocation's candidate SMILES; builtin edits are bit-deterministic per seed."""
    if isinstance(spec.kind, ToolProfile):
        outcome = simulated_tool_step(spec.kind, mol, instruction, seed)
        return [outcome if isinstance(outcome, str) else write_smiles(outcome)]
    request = {
        "tool_id": spec.tool_id,
        "smiles": write_smiles(mol),
        "property_id": instruction.property_id,
        "direction": instruction.direction,
        "instruction_text": instruction.text(),
    }
    try:
        payload = spec.kind.transport(request)
    except Exception as exc:
        raise ToolUnavailableError(str(exc)) from exc
    return extract_candidates(payload)


def builtin_toolset() -> tuple[ToolSpec, ...]:
    """The default four-editor testbed with distinct behavior profiles.

    Palettes give each tool molecule-dependent strengths: the swapper talks
    halogens (lipophilicity moves), the mutator reshuffles heteroatoms
    (polarity moves), the ring editor only touches carbon skeleta.
    """
    halogen_palette = ("C", "F", "Cl", "Br")
    hetero_palette = ("C", "N", "O", "S")
    return (
        ToolSpec(
            tool_id="swap",
            description="Substitutes, adds, or removes terminal substituents; halogen-leaning.",
            prompt_templates=default_templates("prefer terminal substituents"),
            kind=ToolProfile(edit_kind="swap", competence=0.95, palette=halogen_palette),
        ),
        ToolSpec(
            tool_id="mutate",
            description="Mutates one atom's element in place; heteroatom-leaning.",
            prompt_templates=default_templates("prefer in-place atom changes"),
            kind=ToolProfile(edit_kind="mutate", competence=0.9, palette=hetero_palette, aggressive_edits=2),
        ),
        ToolSpec(
            tool_id="ring",
            description="Appends or contracts carbon rings; largest edits, lowest similarity.",
            prompt_templates=default_templates("prefer ring-level changes"),
            kind=ToolProfile(edit_kind="ring", competence=0.85, palette=("C",)),
        ),
        ToolSpec(
            tool_id="flaky-swap",
            description="Terminal-substituent editor with an unreliable serializer.",
            prompt_templates=default_templates("prefer terminal substituents"),
            kind=ToolProfile(edit_kind="swap", competence=0.55, palette=halogen_palette, p_fail=0.5),
        ),
    )

