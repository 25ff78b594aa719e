"""Acceptance-criterion oracles and helpers that only the tests use.

``prefix_match`` (criterion 7), ``invocation_budget_check`` (criterion 4)
and ``brute_force_metrics`` (criterion 3) judge campaign output from outside
the engine, so they live beside the tests that apply them rather than in
the package.

``ring_bond_flags``, ``ring_atom_flags``, ``_perceive``, ``bond_order_sums``,
``hydrogen_counts`` and ``_check_validity`` are ``molgraph``'s perception as
it was before one pass computed it: a forest walk for the rings, a second
walk for connectivity, each result under its own cache key. They are the
reference that the single pass must reproduce; call them on a fresh copy of
a graph, so that their cache entries stay out of the graph under test.
"""

from __future__ import annotations

from dataclasses import replace

from leadopt import evaluate as ev
from leadopt import tools as tl
from leadopt.buffer import TrajectoryRecord
from leadopt.molgraph import (
    AROMATIC,
    SINGLE,
    MolGraph,
    ValidityReport,
    _pi_atoms,
    allowed_valences,
    neighbors,
)
from leadopt.orchestrate import CampaignResult, RunConfig


def prefix_match(a: TrajectoryRecord, b: TrajectoryRecord, k: int) -> bool:
    """Whether the first k tool-action nodes agree (both must have >= k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(a.actions) < k or len(b.actions) < k:
        return False
    return a.actions[:k] == b.actions[:k]


def invocation_budget_check(result: CampaignResult, config: RunConfig) -> bool:
    """Planned calls match the mode's budget; at most one retry per action."""
    total = 0
    for record in result.steps:
        planned = [a for a in record.attempts if not a.retry]
        retries = [a for a in record.attempts if a.retry]
        if len(planned) != config.budget:
            return False
        if len(record.plan) != config.budget:
            return False
        retry_actions = [a.action for a in retries]
        if len(retry_actions) != len(set(retry_actions)):
            return False
        if not set(retry_actions) <= {a.action for a in planned}:
            return False
        total += len(planned) + len(retries)
    if total != result.invocation_count:
        return False
    return total <= config.steps * config.budget * 2


def is_improvement(spec: ev.PropertySpec, new: ev.PropertyValue, ref: ev.PropertyValue) -> bool:
    """Strictly better than ref in the preferred direction.

    ``relative_improvement`` takes (initial, final); this names the new value
    first so a call site cannot swap the two by accident.
    """
    return ev.relative_improvement(spec, ref, new).improved


def with_flaky_probability(spec: tl.ToolSpec, p_fail: float) -> tl.ToolSpec:
    """Copy of a builtin tool spec with a different corruption probability."""
    if not isinstance(spec.kind, tl.ToolProfile):
        raise ValueError("only builtin tools have a failure probability")
    return replace(spec, kind=replace(spec.kind, p_fail=p_fail))


def brute_force_metrics(records: list[dict]) -> dict:
    """Independent recomputation of every metric from raw step records."""
    n = len(records)
    succeeded = [r for r in records if r["best_seen"] is not None]
    sr = 100.0 * len(succeeded) / n

    sims = [r["best_seen"]["sim"] for r in succeeded]
    sim = 100.0 * sum(sims) / len(sims) if sims else None

    eligible = [
        r["best_seen"]["relative_improvement"]
        for r in succeeded
        if r["best_seen"]["sim"] >= 0.5 and r["best_seen"]["relative_improvement"] is not None
    ]
    ri = 100.0 * sum(eligible) / len(eligible) if eligible else None

    total = valid = 0
    for record in records:
        for step in record["steps"]:
            for attempt in step["attempts"]:
                for candidate in attempt["candidates"]:
                    total += 1
                    valid += candidate["valid"]
    vr = 100.0 * valid / total if total else None

    steps = max(len(r["steps"]) for r in records)
    bf_counts = [0] * steps
    for record in succeeded:
        bf_counts[record["best_seen"]["step_index"]] += 1
    bf = [100.0 * c / len(succeeded) for c in bf_counts] if succeeded else []

    novel = [0] * steps
    passing = [0] * steps
    for record in records:
        prior: set = set()
        for step in record["steps"]:
            idx = step["step_index"]
            step_candidates = [
                c for attempt in step["attempts"] for c in attempt["candidates"]
            ]
            for candidate in step_candidates:
                if candidate["passed"]:
                    passing[idx] += 1
                    if candidate["canonical"] not in prior:
                        novel[idx] += 1
            for candidate in step_candidates:
                if candidate["canonical"] is not None:
                    prior.add(candidate["canonical"])
    nov = [100.0 * novel[s] / passing[s] if passing[s] else None for s in range(steps)]

    cand_total = [0] * steps
    cand_fail = [0] * steps
    action_fail = [0] * steps
    action_rescued = [0] * steps
    for record in records:
        for step in record["steps"]:
            idx = step["step_index"]
            failed_first: dict = {}
            for attempt in step["attempts"]:
                attempt_pass = False
                for candidate in attempt["candidates"]:
                    cand_total[idx] += 1
                    cand_fail[idx] += not candidate["passed"]
                    attempt_pass = attempt_pass or candidate["passed"]
                key = (attempt["tool_id"], attempt["prompt_index"])
                if not attempt["retry"]:
                    if not attempt_pass:
                        failed_first[key] = False
                elif key in failed_first:
                    failed_first[key] = failed_first[key] or attempt_pass
            action_fail[idx] += len(failed_first)
            action_rescued[idx] += sum(failed_first.values())
    er = [100.0 * cand_fail[s] / cand_total[s] if cand_total[s] else None for s in range(steps)]
    rr = [
        100.0 * action_rescued[s] / action_fail[s] if action_fail[s] else None
        for s in range(steps)
    ]
    return {"sr": sr, "sim": sim, "ri": ri, "vr": vr, "bf": bf, "nov": nov, "er": er, "rr": rr}


def ring_bond_flags(mol: MolGraph) -> tuple[bool, ...]:
    """True for every bond that lies on a cycle (i.e. is not a bridge).

    Each bond outside a spanning forest closes one cycle with the forest path
    between its ends, and every cycle is built from these, so the ring bonds
    are the non-forest bonds and the forest bonds on their paths.
    """
    if "ring_bonds" in mol._cache:
        return mol._cache["ring_bonds"]
    adj = neighbors(mol)
    depth = [-1] * len(mol.atoms)
    up = [(-1, -1)] * len(mol.atoms)  # (parent atom, forest bond); (-1, -1) at a root
    for root in range(len(mol.atoms)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            node = stack.pop()
            for other, bi in adj[node]:
                if depth[other] < 0:
                    depth[other], up[other] = depth[node] + 1, (node, bi)
                    stack.append(other)
    flags = [False] * len(mol.bonds)
    for bi, bond in enumerate(mol.bonds):
        a, b = bond.pair
        if up[a][1] == bi or up[b][1] == bi:
            continue
        flags[bi] = True
        while a != b:  # climb from the deeper end until the two ends meet
            if depth[a] < depth[b]:
                a, b = b, a
            a, forest_bond = up[a]
            flags[forest_bond] = True
    result = tuple(flags)
    mol._cache["ring_bonds"] = result
    return result


def ring_atom_flags(mol: MolGraph) -> tuple[bool, ...]:
    """True for every atom on a ring bond."""
    if "ring_atoms" in mol._cache:
        return mol._cache["ring_atoms"]
    flags = [False] * len(mol.atoms)
    for bond, in_ring in zip(mol.bonds, ring_bond_flags(mol)):
        if in_ring:
            flags[bond.a] = True
            flags[bond.b] = True
    result = tuple(flags)
    mol._cache["ring_atoms"] = result
    return result


def _perceive(mol: MolGraph) -> tuple[frozenset[int] | None, list[tuple[int, str, str]]]:
    """Check aromatic bonds; returns (pi atoms, violations), pi atoms None on any violation."""
    if "pi" in mol._cache:
        return mol._cache["pi"]
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
    pi = None if violations else _pi_atoms(mol)
    if not violations and pi is None:
        first = next(i for i, atom in enumerate(mol.atoms) if atom.aromatic)
        violations.append((first, "kekulize", "no alternating bond assignment for aromatic system"))
    mol._cache["pi"] = (pi, violations)
    return pi, violations


def bond_order_sums(mol: MolGraph) -> tuple[int, ...]:
    """Per-atom bond-order sum with aromatic bonds resolved.

    Any alternating assignment gives each pi atom one double bond, so an
    aromatic bond counts 1 and each pi atom 1 more; with no assignment,
    aromatic bonds count as single.
    """
    if "bondsums" in mol._cache:
        return mol._cache["bondsums"]
    pi, _ = _perceive(mol)
    sums = [0] * len(mol.atoms)
    for bond in mol.bonds:
        order = SINGLE if bond.order == AROMATIC else bond.order
        sums[bond.a] += order
        sums[bond.b] += order
    for idx in pi or ():
        sums[idx] += 1
    result = tuple(sums)
    mol._cache["bondsums"] = result
    return result


def hydrogen_counts(mol: MolGraph) -> tuple[int, ...]:
    """Total hydrogens per atom: explicit where given, else derived."""
    if "hcounts" in mol._cache:
        return mol._cache["hcounts"]
    counts = []
    for atom, bondsum in zip(mol.atoms, bond_order_sums(mol)):
        if atom.explicit_h is not None:
            counts.append(atom.explicit_h)
            continue
        allowed = allowed_valences(atom.element, atom.formal_charge)
        target = min((v for v in allowed if v >= bondsum), default=bondsum)
        counts.append(max(0, target - bondsum))
    result = tuple(counts)
    mol._cache["hcounts"] = result
    return result


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

    pi, arom_violations = _perceive(mol)
    violations.extend(arom_violations)

    if pi is not None:
        for idx, (atom, bondsum) in enumerate(zip(mol.atoms, bond_order_sums(mol))):
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
