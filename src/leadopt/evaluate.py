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
from dataclasses import dataclass
from typing import Callable

from .molgraph import (
    Atom,
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
    """External evaluator endpoint failed or reported an error."""


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


def logp_contribution(atom: Atom) -> float:
    if atom.element == "C" and atom.aromatic:
        return LOGP_CONTRIBUTION["C_aromatic"]
    return LOGP_CONTRIBUTION[atom.element]


def descriptors(mol: MolGraph, property_id: str) -> Descriptors:
    """The descriptor record that property_id's surrogate reads."""
    return Descriptors(
        logp=sum(logp_contribution(atom) for atom in mol.atoms),
        hac=len(mol.atoms),
        hetero=sum(1 for atom in mol.atoms if atom.element != "C"),
        aromatic_rings=aromatic_ring_count(mol) if property_id in LOGISTIC_COEFFICIENTS else 0,
        largest_ring=largest_ring_size(mol) if property_id == "plogp" else 0,
    )


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
    rather than aborting a campaign.
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
        if not isinstance(response, dict):
            raise EvaluatorUnavailableError(f"malformed evaluator response: {response!r:.80}")
        errors = response.get("errors")
        if errors:
            first = errors[0] if isinstance(errors, list) else None
            if isinstance(first, list) and len(first) == 2:
                raise EvaluatorUnavailableError(f"sample {first[0]}: {first[1]}")
            raise EvaluatorUnavailableError(f"malformed evaluator errors: {errors!r:.80}")
        values = response.get("values")
        if not isinstance(values, list) or len(values) != len(smiles_list):
            raise EvaluatorUnavailableError("malformed evaluator response")
        out = []
        for value in values:
            if isinstance(value, bool):
                raise EvaluatorUnavailableError(f"boolean value {value} from evaluator")
            try:
                number = float(value)
            except (TypeError, ValueError) as exc:
                raise EvaluatorUnavailableError(f"non-numeric value {value!r:.80}") from exc
            if not math.isfinite(number):
                raise EvaluatorUnavailableError("non-finite value from evaluator")
            out.append(number)
        return out


def evaluate(spec: PropertySpec, mol: MolGraph) -> PropertyValue:
    """Deterministic property value for a valid molecule."""
    report = validate(mol)
    if not report.valid:
        from .fingerprint import InvalidMoleculeError

        raise InvalidMoleculeError(f"invalid molecule: {report.violations[0][2]}")
    if spec.evaluator == "builtin":
        if spec.id not in BUILTIN_SURROGATES:
            raise KeyError(f"no builtin surrogate for {spec.id!r}")
        return PropertyValue(surrogate(spec.id, mol), spec.id)
    values = spec.evaluator([write_smiles(mol)])
    return PropertyValue(values[0], spec.id)


def is_improvement(spec: PropertySpec, new: PropertyValue, ref: PropertyValue) -> bool:
    """Strictly better in the preferred direction."""
    if new.property_id != ref.property_id:
        raise PropertyMismatchError(f"{new.property_id} vs {ref.property_id}")
    if spec.direction == MAXIMIZE:
        return new.value > ref.value
    return new.value < ref.value


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
