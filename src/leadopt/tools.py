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

import random
import re
import time
from dataclasses import dataclass, replace
from typing import Callable

from . import evaluate as ev
from .molgraph import (
    ALLOWED_VALENCE,
    SINGLE,
    Atom,
    Bond,
    MolGraph,
    allowed_valences,
    free_valence,
    kekule_orders,
    neighbors,
    ring_atom_flags,
    validate,
    write_smiles,
)

INVALID_STRUCTURE = "invalid_structure"
SIMILARITY_VIOLATION = "similarity_violation"
NO_IMPROVEMENT = "no_improvement"
EVALUATOR_ERROR = "evaluator_error"

FAILURE_KINDS = (INVALID_STRUCTURE, SIMILARITY_VIOLATION, NO_IMPROVEMENT, EVALUATOR_ERROR)

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
    it by fail_damping (never below fail_floor).
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


@dataclass
class ToolResult:
    candidates: list[str]
    tool_id: str
    latency: float
    raw_payload: str


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


def _remove_atom(mol: MolGraph, idx: int, new_bonds: list[Bond] = ()) -> MolGraph:
    atoms = tuple(a for i, a in enumerate(mol.atoms) if i != idx)

    def remap(i: int) -> int:
        return i - 1 if i > idx else i

    bonds = [
        Bond(remap(b.a), remap(b.b), b.order, b.stereo_tag)
        for b in mol.bonds
        if idx not in b.pair
    ]
    bonds.extend(Bond(remap(b.a), remap(b.b), b.order) for b in new_bonds)
    return MolGraph(atoms, tuple(bonds))


@dataclass
class _EditOption:
    """One concrete edit: a predicted descriptor record plus a builder."""

    descriptors: ev.Descriptors | None  # None: construct the graph to score it
    build: Callable[[], MolGraph]


def _element_change_options(
    mol: MolGraph, d: ev.Descriptors, indices, palette
) -> list[_EditOption]:
    options = []
    for idx in indices:
        old = mol.atoms[idx]
        for element in palette:
            if element == old.element:
                continue
            new_d = replace(
                d,
                logp=d.logp - ev.logp_contribution(old) + ev.LOGP_CONTRIBUTION[element],
                hetero=d.hetero - (old.element != "C") + (element != "C"),
            )

            def build(idx=idx, element=element):
                atoms = list(mol.atoms)
                atoms[idx] = Atom(element)
                return MolGraph(tuple(atoms), mol.bonds)

            options.append(_EditOption(new_d, build))
    return options


def _swap_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    return _element_change_options(mol, d, _terminal_indices(mol), palette)


def _attach_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    options = []
    for anchor in _attachment_points(mol):
        for element in palette:
            new_d = replace(
                d,
                logp=d.logp + ev.LOGP_CONTRIBUTION[element],
                hac=d.hac + 1,
                hetero=d.hetero + (element != "C"),
            )

            def build(anchor=anchor, element=element):
                atoms = mol.atoms + (Atom(element),)
                return MolGraph(atoms, mol.bonds + (Bond(anchor, len(mol.atoms), SINGLE),))

            options.append(_EditOption(new_d, build))
    return options


def _remove_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    if len(mol.atoms) <= 2:
        return []
    options = []
    for idx in _terminal_indices(mol):
        old = mol.atoms[idx]
        new_d = replace(
            d,
            logp=d.logp - ev.logp_contribution(old),
            hac=d.hac - 1,
            hetero=d.hetero - (old.element != "C"),
        )
        options.append(_EditOption(new_d, lambda idx=idx: _remove_atom(mol, idx)))
    return options


def _move_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    adj = neighbors(mol)
    options = []
    anchors = _attachment_points(mol)
    for idx in _terminal_indices(mol):
        neighbor = adj[idx][0][0]
        for anchor in anchors:
            if anchor in (idx, neighbor):
                continue

            def build(idx=idx, anchor=anchor):
                trimmed = _remove_atom(mol, idx)
                new_anchor = anchor - 1 if anchor > idx else anchor
                atoms = trimmed.atoms + (Atom(mol.atoms[idx].element),)
                return MolGraph(
                    atoms,
                    trimmed.bonds + (Bond(new_anchor, len(trimmed.atoms), SINGLE),),
                )

            # Element multiset is unchanged, so every descriptor-level
            # surrogate is too: a purely structural shuffle.
            options.append(_EditOption(d, build))
    return options


def _mutate_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    try:
        orders = kekule_orders(mol)
    except Exception:
        return []
    adj = neighbors(mol)
    internal = [
        i for i, atom in enumerate(mol.atoms) if _plain(atom) and len(adj[i]) >= 2
    ]
    pool = internal or [i for i, a in enumerate(mol.atoms) if _plain(a) and adj[i]]
    options = []
    for idx in pool:
        bondsum = sum(orders[bi] for _, bi in adj[idx])
        allowed = [
            e for e in palette if max(allowed_valences(e)) >= bondsum
        ]
        options.extend(_element_change_options(mol, d, [idx], allowed))
    return options


def _ring_append_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    """Close a new carbon ring between two open atoms a short path apart.

    Bridging existing path atoms into a fresh cycle flips their ring
    membership, which is what makes this the large-edit profile. Graphs are
    built eagerly (ring geometry is not a descriptor-level delta).
    """
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
    if not pairs:
        return []
    if len(pairs) > 4:
        pairs = rng.sample(pairs, 4)
    options = []
    for start, partner in pairs:
        for length in (1, 2, 3):

            def build(start=start, partner=partner, length=length):
                base = len(mol.atoms)
                atoms = mol.atoms + tuple(Atom("C") for _ in range(length))
                new_bonds = [Bond(start, base, SINGLE)]
                for k in range(length - 1):
                    new_bonds.append(Bond(base + k, base + k + 1, SINGLE))
                new_bonds.append(Bond(base + length - 1, partner, SINGLE))
                return MolGraph(atoms, mol.bonds + tuple(new_bonds))

            options.append(_EditOption(None, build))
    return options


def _ring_contract_options(
    mol: MolGraph, d: ev.Descriptors, palette, rng: random.Random
) -> list[_EditOption]:
    adj = neighbors(mol)
    ring = ring_atom_flags(mol)
    bonded = {b.pair for b in mol.bonds}
    options = []
    for i, atom in enumerate(mol.atoms):
        if not ring[i] or not _plain(atom) or len(adj[i]) != 2:
            continue
        (n1, b1), (n2, b2) = adj[i]
        if mol.bonds[b1].order != SINGLE or mol.bonds[b2].order != SINGLE:
            continue
        if (min(n1, n2), max(n1, n2)) in bonded:
            continue
        options.append(
            _EditOption(None, lambda i=i, n1=n1, n2=n2: _remove_atom(mol, i, [Bond(n1, n2, SINGLE)]))
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


def _option_score(option: _EditOption, property_id: str, sign: float) -> float | None:
    d = option.descriptors
    if d is None:
        graph = option.build()
        if not validate(graph).valid:
            return None
        option.build = lambda graph=graph: graph  # reuse the constructed graph
        d = ev.descriptors(graph, property_id)
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
    """
    d = ev.descriptors(mol, instruction.property_id)
    known_property = instruction.property_id in ev.BUILTIN_SURROGATES
    sign = 1.0 if instruction.direction == ev.MAXIMIZE else -1.0
    for family in _FAMILIES_BY_KIND_AND_STYLE[profile.edit_kind][style]:
        options = _FAMILY_BUILDERS[family](mol, d, profile.palette, rng)
        if not options:
            continue
        greedy = known_property and rng.random() < profile.competence
        if greedy:
            scored = []
            for position, option in enumerate(options):
                score = _option_score(option, instruction.property_id, sign)
                if score is not None:
                    scored.append((-score, position))
            order = [position for _, position in sorted(scored)]
        else:
            order = list(range(len(options)))
            rng.shuffle(order)
        for position in order:
            graph = options[position].build()
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


def invoke(spec: ToolSpec, instruction: Instruction, mol: MolGraph, seed: int) -> ToolResult:
    """Run one tool invocation; builtin edits are bit-deterministic per seed."""
    start = time.perf_counter()
    if isinstance(spec.kind, ToolProfile):
        outcome = simulated_tool_step(spec.kind, mol, instruction, seed)
        payload = outcome if isinstance(outcome, str) else write_smiles(outcome)
        return ToolResult(
            candidates=[payload],
            tool_id=spec.tool_id,
            latency=time.perf_counter() - start,
            raw_payload=payload,
        )
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
    return ToolResult(
        candidates=extract_candidates(payload),
        tool_id=spec.tool_id,
        latency=time.perf_counter() - start,
        raw_payload=payload if isinstance(payload, str) else repr(payload),
    )


def builtin_toolset(flaky_p_fail: float = 0.5) -> tuple[ToolSpec, ...]:
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
            kind=ToolProfile(
                edit_kind="swap", competence=0.95, palette=halogen_palette
            ),
        ),
        ToolSpec(
            tool_id="mutate",
            description="Mutates one atom's element in place; heteroatom-leaning.",
            prompt_templates=default_templates("prefer in-place atom changes"),
            kind=ToolProfile(
                edit_kind="mutate",
                competence=0.9,
                palette=hetero_palette,
                aggressive_edits=2,
            ),
        ),
        ToolSpec(
            tool_id="ring",
            description="Appends or contracts carbon rings; largest edits, lowest similarity.",
            prompt_templates=default_templates("prefer ring-level changes"),
            kind=ToolProfile(
                edit_kind="ring", competence=0.85, palette=("C",)
            ),
        ),
        ToolSpec(
            tool_id="flaky-swap",
            description="Terminal-substituent editor with an unreliable serializer.",
            prompt_templates=default_templates("prefer terminal substituents"),
            kind=ToolProfile(
                edit_kind="swap",
                competence=0.55,
                palette=halogen_palette,
                p_fail=flaky_p_fail,
            ),
        ),
    )


def with_flaky_probability(spec: ToolSpec, p_fail: float) -> ToolSpec:
    """Copy of a builtin tool spec with a different corruption probability."""
    if not isinstance(spec.kind, ToolProfile):
        raise ValueError("only builtin tools have a failure probability")
    return replace(spec, kind=replace(spec.kind, p_fail=p_fail))
