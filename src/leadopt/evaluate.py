"""Direction-aware property evaluation.

Built-in surrogate properties give the desk-scale testbed deterministic,
nontrivial optimization landscapes; external predictors plug in through a
small request/response protocol (see ExternalEvaluator). Every surrogate is
a pure function of the heavy-atom graph, so isomorphic inputs always score
identically. The surrogates read one descriptor record (Descriptors) through
one formula (predict); the editors in tools rank their edits with the same
record and formula.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

from .molgraph import (
    Atom,
    InvalidMoleculeError,
    MolGraph,
    aromatic_ring_count,
    largest_ring_size,
    validate,
    write_smiles,
)

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

# Additive per-atom lipophilicity contributions for the logp surrogate.
LOGP_CONTRIBUTION = {
    "C_aromatic": 0.29,
    "C": 0.14,
    "N": -0.60,
    "O": -0.64,
    "S": 0.26,
    "P": 0.12,
    "F": 0.21,
    "Cl": 0.65,
    "Br": 0.86,
    "I": 1.12,
    "B": 0.05,
}

# Logistic-surrogate coefficients: value = sigmoid(w_logp * logp
# + w_hetero * hetero_fraction + w_rings * aromatic_rings + bias).
LOGISTIC_COEFFICIENTS = {
    "bbbp": {"logp": 0.9, "hetero": -3.5, "rings": 0.0, "bias": 0.3},
    "hia": {"logp": 0.6, "hetero": 3.0, "rings": 0.0, "bias": -1.2},
    "mutagenicity": {"logp": 0.4, "hetero": 0.0, "rings": 1.1, "bias": -3.2},
}


class EvaluatorUnavailableError(RuntimeError):
    """External evaluator endpoint failed or reported an error.

    outcomes is None when the whole request failed: a transport failure or
    a reply envelope that cannot be read. When only some samples failed it
    holds one entry per requested SMILES: the value of a good sample, or the
    error message of a failed one.
    """

    def __init__(self, message: str, outcomes: list[float | str] | None = None):
        super().__init__(message)
        self.outcomes = outcomes


class PropertyMismatchError(ValueError):
    """Two property values belong to different properties."""


@dataclass(frozen=True)
class PropertySpec:
    """A property id, its preferred direction, and the evaluator binding.

    evaluator is either the string "builtin" or a callable mapping a list of
    SMILES strings to a list of floats (the external protocol adapter).
    """

    id: str
    direction: str
    evaluator: object = "builtin"

    def __post_init__(self):
        if self.direction not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"bad direction {self.direction!r}")
        known = KNOWN_DIRECTIONS.get(self.id)
        if known is not None and known != self.direction:
            raise ValueError(f"{self.id} must have direction {known}")


@dataclass(frozen=True)
class PropertyValue:
    value: float
    property_id: str

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"{self.property_id} value must be finite")


@dataclass(frozen=True)
class Improvement:
    """Desirability-signed change between two values of one property.

    absolute is positive exactly when the change moved in the preferred
    direction. relative is |delta| / |initial| and is None (flagged) when
    the initial value is zero, which excludes the sample from averaging.
    """

    absolute: float
    relative: float | None
    improved: bool


@dataclass(frozen=True)
class Descriptors:
    """Closed-form molecule descriptors the builtin surrogates read.

    The ring fields are computed only for the properties that read them
    (largest_ring for plogp, aromatic_rings for the logistic ones) and hold
    0 otherwise.
    """

    logp: float
    hac: int
    hetero: int
    aromatic_rings: int = 0
    largest_ring: int = 0

    @property
    def hetero_fraction(self) -> float:
        return self.hetero / self.hac if self.hac else 0.0

    def edited(self, removed: Atom | None = None, added: Atom | None = None) -> Descriptors:
        """The record after removing one atom and adding another; either may be None.

        logp becomes (logp - removed) + added, in that order, so that a
        ranked edit scores bit-equal however it is reached. The ring fields
        carry over.
        """
        logp, hac, hetero = self.logp, self.hac, self.hetero
        if removed is not None:
            logp -= logp_contribution(removed)
            hac -= 1
            hetero -= removed.element != "C"
        if added is not None:
            logp += logp_contribution(added)
            hac += 1
            hetero += added.element != "C"
        return replace(self, logp=logp, hac=hac, hetero=hetero)


def logp_contribution(atom: Atom) -> float:
    if atom.element == "C" and atom.aromatic:
        return LOGP_CONTRIBUTION["C_aromatic"]
    return LOGP_CONTRIBUTION[atom.element]


def descriptors(mol: MolGraph, property_id: str) -> Descriptors:
    """The descriptor record that property_id's surrogate reads.

    Memoized on the molecule, keyed by property, since the ring fields
    differ by property.
    """
    key = ("descriptors", property_id)
    if key not in mol._cache:
        logp = 0.0
        for atom in mol.atoms:  # left to right: sum() rounds differently from Python 3.12 on
            logp += logp_contribution(atom)
        mol._cache[key] = Descriptors(
            logp=logp,
            hac=len(mol.atoms),
            hetero=sum(1 for atom in mol.atoms if atom.element != "C"),
            aromatic_rings=aromatic_ring_count(mol) if property_id in LOGISTIC_COEFFICIENTS else 0,
            largest_ring=largest_ring_size(mol) if property_id == "plogp" else 0,
        )
    return mol._cache[key]


def drug_likeness_score(heavy_atoms: int, hetero: float) -> float:
    """Smooth drug-likeness score, peaking at 25 heavy atoms, 30% hetero."""
    size_term = math.exp(-(((heavy_atoms - 25) / 15.0) ** 2))
    hetero_term = math.exp(-(((hetero - 0.3) / 0.3) ** 2))
    return size_term * hetero_term


def predict(property_id: str, d: Descriptors) -> float:
    """Builtin surrogate value of a descriptor record.

    plogp penalizes rings larger than six atoms. Raises KeyError for a
    property without a builtin surrogate.
    """
    if property_id == "logp":
        return d.logp
    if property_id == "plogp":
        return d.logp - max(0, d.largest_ring - 6)
    if property_id == "qed":
        return drug_likeness_score(d.hac, d.hetero_fraction)
    coeff = LOGISTIC_COEFFICIENTS[property_id]
    x = (
        coeff["logp"] * d.logp
        + coeff["hetero"] * d.hetero_fraction
        + coeff["rings"] * d.aromatic_rings
        + coeff["bias"]
    )
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def surrogate(property_id: str, mol: MolGraph) -> float:
    """Builtin surrogate value of a molecule."""
    return predict(property_id, descriptors(mol, property_id))


BUILTIN_SURROGATES: dict[str, Callable[[MolGraph], float]] = {
    pid: functools.partial(surrogate, pid)
    for pid in ("logp", "plogp", "qed", "bbbp", "hia", "mutagenicity")
}

KNOWN_DIRECTIONS = {
    "logp": MAXIMIZE,
    "plogp": MAXIMIZE,
    "qed": MAXIMIZE,
    "bbbp": MAXIMIZE,
    "hia": MAXIMIZE,
    "mutagenicity": MINIMIZE,
}


def builtin_property(property_id: str) -> PropertySpec:
    if property_id not in BUILTIN_SURROGATES:
        raise KeyError(f"no builtin surrogate for {property_id!r}")
    return PropertySpec(property_id, KNOWN_DIRECTIONS[property_id], "builtin")


class ExternalEvaluator:
    """Adapter for the evaluator wire protocol.

    The transport callable receives a request document
    ``{"property_id": ..., "smiles_list": [...]}`` and must return a response
    document ``{"values": [...], "errors": [[index, message], ...]}``.
    Transport failures and per-sample errors surface as
    EvaluatorUnavailableError; they mark candidates failed-by-evaluation
    rather than aborting a campaign. A per-sample error carries the outcome
    of every sample, so a batching caller keeps the good ones.
    """

    def __init__(self, property_id: str, transport: Callable[[dict], dict]):
        self.property_id = property_id
        self.transport = transport

    def __call__(self, smiles_list: list[str]) -> list[float]:
        request = {"property_id": self.property_id, "smiles_list": list(smiles_list)}
        try:
            response = self.transport(request)
        except Exception as exc:  # transport failure of any flavor
            raise EvaluatorUnavailableError(str(exc)) from exc
        outcomes = _reply_outcomes(response, len(smiles_list))
        for outcome in outcomes:
            if isinstance(outcome, str):
                raise EvaluatorUnavailableError(outcome, outcomes)
        return outcomes


def _is_error_entry(entry: object, n: int) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], int)
        and not isinstance(entry[0], bool)
        and 0 <= entry[0] < n
    )


def _sample_value(value: object) -> float | str:
    """A reply value as a float, or the message saying why it is not one.

    The value must be a JSON number within the float range: an int or a
    float, never a bool, a numeric string, NaN or an infinity. It is
    checked, not converted.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # NaN, the infinities and ints beyond the float range all fail the bound.
        if abs(value) <= sys.float_info.max:
            return float(value)
    return f"not a finite JSON number: {value!r:.80}"


def _reply_outcomes(response: object, n: int) -> list[float | str]:
    """Per-sample outcomes of a reply to n SMILES: a value or an error message.

    An error entry or a missing or bad value fails only its sample. Raises
    EvaluatorUnavailableError when the envelope cannot be read: a reply that
    is not a dict, values that are not a list of at most n entries, or errors
    that are not a list of [in-range index, message] pairs.
    """
    if not isinstance(response, dict):
        raise EvaluatorUnavailableError(f"malformed evaluator response: {response!r:.80}")
    values = response.get("values", [])
    errors = response.get("errors") or []
    if not isinstance(values, list) or len(values) > n:
        raise EvaluatorUnavailableError(f"malformed evaluator values: {values!r:.80}")
    if not isinstance(errors, list) or not all(_is_error_entry(e, n) for e in errors):
        raise EvaluatorUnavailableError(f"malformed evaluator errors: {errors!r:.80}")
    messages: dict[int, str] = {}
    for index, message in errors:
        messages.setdefault(index, str(message))
    outcomes: list[float | str] = []
    for index in range(n):
        if index in messages:
            outcome = messages[index]
        elif index < len(values):
            outcome = _sample_value(values[index])
        else:
            outcome = "no value from evaluator"
        outcomes.append(f"sample {index}: {outcome}" if isinstance(outcome, str) else outcome)
    return outcomes


def evaluate_batch(
    spec: PropertySpec, mols: list[MolGraph]
) -> list[PropertyValue | EvaluatorUnavailableError]:
    """Property values of valid molecules, one evaluator request for all.

    An external evaluator receives every molecule's SMILES in one call. A
    sample it fails gets an EvaluatorUnavailableError in its place; a failed
    request or an unreadable reply fails every molecule. Raises
    InvalidMoleculeError when a molecule is invalid.
    """
    for mol in mols:
        report = validate(mol)
        if not report.valid:
            raise InvalidMoleculeError(f"invalid molecule: {report.violations[0][2]}")
    if spec.evaluator == "builtin":
        if spec.id not in BUILTIN_SURROGATES:
            raise KeyError(f"no builtin surrogate for {spec.id!r}")
        outcomes = [surrogate(spec.id, mol) for mol in mols]
    elif not mols:
        return []
    else:
        try:
            outcomes = spec.evaluator([write_smiles(mol) for mol in mols])
            if len(outcomes) != len(mols):
                raise EvaluatorUnavailableError(
                    f"{len(outcomes)} values for {len(mols)} molecules"
                )
        except EvaluatorUnavailableError as exc:
            outcomes = [str(exc)] * len(mols) if exc.outcomes is None else exc.outcomes
    return [
        EvaluatorUnavailableError(outcome)
        if isinstance(outcome, str)
        else PropertyValue(outcome, spec.id)
        for outcome in outcomes
    ]


def evaluate(spec: PropertySpec, mol: MolGraph) -> PropertyValue:
    """Deterministic property value for a valid molecule: a batch of one."""
    (outcome,) = evaluate_batch(spec, [mol])
    if isinstance(outcome, EvaluatorUnavailableError):
        raise outcome
    return outcome


def relative_improvement(
    spec: PropertySpec, initial: PropertyValue, final: PropertyValue
) -> Improvement:
    """Desirability-signed absolute and relative change from initial."""
    if initial.property_id != final.property_id:
        raise PropertyMismatchError(f"{initial.property_id} vs {final.property_id}")
    delta = final.value - initial.value
    if spec.direction == MINIMIZE:
        delta = -delta
    improved = delta > 0
    if initial.value == 0:
        return Improvement(absolute=delta, relative=None, improved=improved)
    return Improvement(
        absolute=delta,
        relative=abs(final.value - initial.value) / abs(initial.value),
        improved=improved,
    )
