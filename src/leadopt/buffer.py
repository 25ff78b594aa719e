"""Offline trajectory buffer: persistence and top-1 similarity retrieval.

Records successful optimization trajectories (tool/prompt sequences plus
per-step outcomes), partitioned by property. Retrieval is an exact linear
scan over the queried partition; ties at equal similarity prefer the larger
final improvement, then the lexicographically smaller lead. Files are
line-delimited JSON, written atomically (write-new-then-rename), and read in
two passes: read_records parses the lines, verify_records checks stored
fingerprints against their leads, either all of them at load or each one
the first time top1_similar returns it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Iterator

from .fingerprint import NBITS, RADIUS, Fingerprint, morgan_fp, tanimoto
from .molgraph import MolGraph, ParseError, parse_smiles


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


@dataclass
class TrajectoryBuffer:
    _by_property: dict[str, list[TrajectoryRecord]] = field(default_factory=dict)
    # Set by load without verify: the file, the line of each record read from
    # it by id, and the verdict on each record top1_similar has returned.
    _path: str = field(default="", compare=False, repr=False)
    _lines: dict[int, int] = field(default_factory=dict, compare=False, repr=False)
    _verdicts: dict[int, LineFailure | None] = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return sum(len(records) for records in self._by_property.values())

    def records(self, property_id: str) -> tuple[TrajectoryRecord, ...]:
        return tuple(self._by_property.get(property_id, ()))

    def properties(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_property))

    def insert(self, record: TrajectoryRecord) -> None:
        self._by_property.setdefault(record.property_id, []).append(record)

    def top1_similar(
        self, mol: MolGraph, property_id: str
    ) -> tuple[TrajectoryRecord, float] | None:
        """Most similar record in the property partition, with its similarity.

        A record that load read without verify is checked (verify_records)
        the first time it is returned, and the verdict is memoized: a record
        that fails raises RecordCheckError now and on every later return.
        """
        records = self._by_property.get(property_id)
        if not records:
            return None
        query = morgan_fp(mol)
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
        key = id(best)
        if key in self._lines:
            if key not in self._verdicts:
                self._verdicts[key] = verify_records([(self._lines[key], best)])
            if self._verdicts[key] is not None:
                raise RecordCheckError(self._path, self._verdicts[key])
        return best, best_sim

    # -- persistence --------------------------------------------------------

    def flush(self, path: str) -> None:
        """Atomically write the buffer as UTF-8 JSON lines."""
        write_lines_atomic(
            path,
            [
                json.dumps(record_to_dict(record), sort_keys=True)
                for property_id in sorted(self._by_property)
                for record in self._by_property[property_id]
            ],
        )

    @classmethod
    def load(cls, path: str, verify: bool = True) -> "TrajectoryBuffer":
        """Read a buffer file (read_records), then check each stored
        fingerprint against its lead (verify_records): with verify, every
        one now; without, each one the first time top1_similar returns it.

        Raises SchemaError naming the first failing ``path:line``: with
        verify, a line that fails verification comes before the malformed
        line that ended reading, since only the lines read are verified.
        """
        records, failure = read_records(path)
        if verify:
            failure = verify_records(records) or failure
        if failure is not None:
            raise line_error(path, failure)
        buffer = cls(_path=path)
        for lineno, record in records:
            buffer.insert(record)
            if not verify:
                buffer._lines[id(record)] = lineno
        return buffer


# (line number, message) of a buffer line that failed to read or verify.
LineFailure = tuple[int, str]


def line_error(path: str, failure: LineFailure) -> SchemaError:
    lineno, message = failure
    return SchemaError(f"{path}:{lineno}: {message}")


class RecordCheckError(SchemaError):
    """A record that top1_similar returned failed verify_records."""

    def __init__(self, path: str, failure: LineFailure):
        super().__init__(str(line_error(path, failure)))
        self.failure = failure


def read_records(path: str) -> tuple[list[tuple[int, TrajectoryRecord]], LineFailure | None]:
    """(line number, record) for each line of a buffer file, in file order,
    up to the first malformed line, and that line's failure (None if every
    line reads). Stored fingerprints are taken as written; see verify_records.
    """
    records = []
    for lineno, data in read_json_lines(path):
        try:
            if isinstance(data, ValueError):
                raise SchemaError(str(data))
            records.append((lineno, record_from_dict(data)))
        except SchemaError as exc:
            return records, (lineno, str(exc))
    return records, None


def verify_records(records: list[tuple[int, TrajectoryRecord]]) -> LineFailure | None:
    """The first record whose lead does not parse, or whose fingerprint,
    computed afresh, differs from the stored one; None if every record holds.
    """
    for lineno, record in records:
        try:
            if morgan_fp(parse_smiles(record.lead)) != record.lead_fp:
                return lineno, "stored fingerprint does not match lead"
        except ParseError as exc:
            return lineno, str(exc)
    return None


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


def read_json_lines(path: str) -> Iterator[tuple[int, object]]:
    """(line number, JSON value) for each non-blank line; lines end as in text mode.

    Blank means empty or JSON whitespace only (space, tab, CR, LF). A line
    that is not UTF-8 or not JSON, or nests deeper than the decoder can
    recurse, yields a ValueError as the value.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip(" \t\r\n")
            if not line:
                continue
            value = json.loads(line)
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            value = exc
        except RecursionError:
            value = ValueError("JSON nested too deeply")
        yield lineno, value


def json_field(container: dict, key: str, *types: type) -> object:
    """container[key] if its type is exactly one of types, as for a value
    from json.loads, and, if a number, finite.

    So a bool passes only where bool is listed.
    """
    value = container[key]
    if type(value) in types:
        # NaN, the infinities and ints beyond the float range all fail the bound.
        if type(value) not in (int, float) or abs(value) <= sys.float_info.max:
            return value
    raise SchemaError(f"{key} has the wrong type or value: {value!r:.80}")


def record_to_dict(record: TrajectoryRecord) -> dict:
    return {
        "lead": record.lead,
        "lead_fp_hex": record.lead_fp.to_hex(),
        "fp_radius": RADIUS,
        "fp_nbits": NBITS,
        "property_id": record.property_id,
        "actions": [asdict(action) for action in record.actions],
        "step_outcomes": [asdict(outcome) for outcome in record.step_outcomes],
        "final_ri": record.final_relative_improvement,
        "run_id": record.run_id,
    }


def record_from_dict(data: dict) -> TrajectoryRecord:
    try:
        shape = (data["fp_radius"], data["fp_nbits"])
        if shape != (RADIUS, NBITS):
            raise SchemaError(
                f"fingerprint radius/nbits {shape[0]!r}/{shape[1]!r}, expected {RADIUS}/{NBITS}"
            )
        return TrajectoryRecord(
            lead=json_field(data, "lead", str),
            lead_fp=Fingerprint.from_hex(data["lead_fp_hex"]),
            property_id=json_field(data, "property_id", str),
            actions=tuple(
                ToolAction(json_field(a, "tool_id", str), json_field(a, "prompt_index", int))
                for a in data["actions"]
            ),
            step_outcomes=tuple(
                StepOutcome(
                    json_field(o, "smiles", str),
                    float(json_field(o, "value", int, float)),
                    float(json_field(o, "sim", int, float)),
                )
                for o in data["step_outcomes"]
            ),
            final_relative_improvement=float(json_field(data, "final_ri", int, float)),
            run_id=json_field(data, "run_id", str),
        )
    except SchemaError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc
