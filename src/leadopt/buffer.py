"""Offline trajectory buffer: persistence and top-1 similarity retrieval.

Records successful optimization trajectories (tool/prompt sequences plus
per-step outcomes), partitioned by property. Retrieval is an exact linear
scan over the queried partition; ties at equal similarity prefer the larger
final improvement, then the lexicographically smaller lead. Files are
line-delimited JSON, written atomically (write-new-then-rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field

from .fingerprint import DEFAULT_NBITS, DEFAULT_RADIUS, Fingerprint, morgan_fp, tanimoto
from .molgraph import MolGraph, parse_smiles


class SchemaError(ValueError):
    """Malformed trajectory record or buffer file line."""


@dataclass(frozen=True)
class ToolAction:
    tool_id: str
    prompt_index: int

    def __post_init__(self):
        if not 0 <= self.prompt_index <= 5:
            raise SchemaError(f"prompt index {self.prompt_index} out of range 0-5")


@dataclass(frozen=True)
class StepOutcome:
    smiles: str  # canonical form of the molecule after the step
    value: float
    sim: float  # similarity to the trajectory's lead


@dataclass(frozen=True)
class TrajectoryRecord:
    lead: str  # canonical SMILES
    lead_fp: Fingerprint
    property_id: str
    actions: tuple[ToolAction, ...]
    step_outcomes: tuple[StepOutcome, ...]
    final_relative_improvement: float
    run_id: str

    def __post_init__(self):
        if not self.actions:
            raise SchemaError("trajectory record needs at least one action")
        if len(self.step_outcomes) != len(self.actions):
            raise SchemaError("one step outcome per action required")
        if self.final_relative_improvement < 0:
            raise SchemaError("only successful trajectories are stored")

    def key(self) -> tuple[str, str, str]:
        return (self.run_id, self.property_id, self.lead)


def prefix_match(a: TrajectoryRecord, b: TrajectoryRecord, k: int) -> bool:
    """Whether the first k tool-action nodes agree (both must have >= k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(a.actions) < k or len(b.actions) < k:
        return False
    return a.actions[:k] == b.actions[:k]


@dataclass
class TrajectoryBuffer:
    fp_radius: int = DEFAULT_RADIUS
    fp_nbits: int = DEFAULT_NBITS
    _by_property: dict[str, list[TrajectoryRecord]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(records) for records in self._by_property.values())

    def records(self, property_id: str) -> tuple[TrajectoryRecord, ...]:
        return tuple(self._by_property.get(property_id, ()))

    def properties(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_property))

    def insert(self, record: TrajectoryRecord) -> None:
        if record.lead_fp.radius != self.fp_radius or record.lead_fp.nbits != self.fp_nbits:
            raise SchemaError(
                f"record fingerprint {record.lead_fp.radius}/{record.lead_fp.nbits} does not"
                f" match buffer {self.fp_radius}/{self.fp_nbits}"
            )
        self._by_property.setdefault(record.property_id, []).append(record)

    def top1_similar(
        self, mol: MolGraph, property_id: str
    ) -> tuple[TrajectoryRecord, float] | None:
        """Most similar record in the property partition, with its similarity."""
        records = self._by_property.get(property_id)
        if not records:
            return None
        query = morgan_fp(mol, self.fp_radius, self.fp_nbits)
        best: TrajectoryRecord | None = None
        best_sim = -1.0
        for record in records:
            sim = tanimoto(query, record.lead_fp)
            if sim > best_sim:
                best, best_sim = record, sim
            elif sim == best_sim and best is not None:
                better_ri = record.final_relative_improvement > best.final_relative_improvement
                same_ri = record.final_relative_improvement == best.final_relative_improvement
                if better_ri or (same_ri and record.lead < best.lead):
                    best = record
        assert best is not None
        return best, best_sim

    # -- persistence --------------------------------------------------------

    def flush(self, path: str) -> None:
        """Atomically write the buffer as UTF-8 JSON lines."""
        write_lines_atomic(path, self.dump_lines())

    def dump_lines(self) -> list[str]:
        lines = []
        for property_id in sorted(self._by_property):
            for record in self._by_property[property_id]:
                lines.append(json.dumps(record_to_dict(record), sort_keys=True))
        return lines

    @classmethod
    def load(cls, path: str, verify: bool = True) -> "TrajectoryBuffer":
        """Read a buffer file; verifies stored fingerprints against leads."""
        buffer: TrajectoryBuffer | None = None
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = record_from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise SchemaError(f"{path}:{lineno}: {exc}") from exc
                if buffer is None:
                    buffer = cls(record.lead_fp.radius, record.lead_fp.nbits)
                if verify:
                    recomputed = morgan_fp(
                        parse_smiles(record.lead), buffer.fp_radius, buffer.fp_nbits
                    )
                    if recomputed != record.lead_fp:
                        raise SchemaError(
                            f"{path}:{lineno}: stored fingerprint does not match lead"
                        )
                buffer.insert(record)
        return buffer if buffer is not None else cls()


def write_lines_atomic(path: str, lines: list[str]) -> None:
    """Write UTF-8 lines to a temporary file beside path, then rename it over path."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".leadopt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def record_to_dict(record: TrajectoryRecord) -> dict:
    return {
        "lead": record.lead,
        "lead_fp_hex": record.lead_fp.to_hex(),
        "fp_radius": record.lead_fp.radius,
        "fp_nbits": record.lead_fp.nbits,
        "property_id": record.property_id,
        "actions": [asdict(action) for action in record.actions],
        "step_outcomes": [asdict(outcome) for outcome in record.step_outcomes],
        "final_ri": record.final_relative_improvement,
        "run_id": record.run_id,
    }


def record_from_dict(data: dict) -> TrajectoryRecord:
    try:
        fingerprint = Fingerprint.from_hex(
            data["lead_fp_hex"], int(data["fp_nbits"]), int(data["fp_radius"])
        )
        return TrajectoryRecord(
            lead=data["lead"],
            lead_fp=fingerprint,
            property_id=data["property_id"],
            actions=tuple(
                ToolAction(a["tool_id"], int(a["prompt_index"])) for a in data["actions"]
            ),
            step_outcomes=tuple(
                StepOutcome(o["smiles"], float(o["value"]), float(o["sim"]))
                for o in data["step_outcomes"]
            ),
            final_relative_improvement=float(data["final_ri"]),
            run_id=data["run_id"],
        )
    except SchemaError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from exc
