"""Campaign runner CLI: run, build-buffer, report, validate-dataset.

Datasets, results, and buffers are all line-delimited UTF-8 JSON. Per-lead
seeds derive from the master seed and the lead's canonical SMILES, so output
bytes are identical no matter how campaigns are scheduled across workers.
"""

from __future__ import annotations

import argparse
import json
import logging
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from . import evaluate as ev
from . import metrics as mx
from . import orchestrate as orc
from . import tools as tl
from .buffer import SchemaError, TrajectoryBuffer, TrajectoryRecord, write_lines_atomic
from .molgraph import MolGraph, ParseError, canonical_form, parse_smiles
from .seeds import derive_seed

log = logging.getLogger("leadopt")


class EmptyDatasetError(ValueError):
    """Dataset produced zero usable entries."""


@dataclass(frozen=True)
class DatasetEntry:
    smiles: str
    property_id: str
    mol: MolGraph  # the parsed row, reused by every later step
    reference: str | None = None


@dataclass(frozen=True)
class CampaignManifest:
    mode: str
    steps: int
    tau: float
    seed: int
    property_id: str | None
    dataset: str
    out: str
    buffer: str | None = None
    tools_config: str | None = None
    evaluators_config: str | None = None
    jobs: int = 1


# ---------------------------------------------------------------------------
# Wire transports (subprocess pipe endpoints)
# ---------------------------------------------------------------------------


def text_endpoint(argv: list[str], timeout: float = 60.0):
    """One request per process: JSON on stdin, raw text reply on stdout."""

    def call(request: dict) -> str:
        proc = subprocess.run(
            argv,
            input=json.dumps(request, sort_keys=True),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"endpoint {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    return call


def json_endpoint(argv: list[str], timeout: float = 60.0):
    """Like text_endpoint but the reply must be a single JSON document."""
    raw = text_endpoint(argv, timeout)

    def call(request: dict) -> dict:
        return json.loads(raw(request))

    return call


# ---------------------------------------------------------------------------
# Configuration loading
# ---------------------------------------------------------------------------


# Builtin profile keys a tools config may set, with their conversions.
_PROFILE_FIELDS = {
    "edit_kind": str,
    "competence": float,
    "palette": tuple,
    "p_fail": float,
    "fail_damping": float,
    "fail_floor": float,
    "aggressive_edits": int,
}


def _endpoint_argv(entry: dict) -> list[str]:
    argv = entry["endpoint"]
    if not isinstance(argv, list) or not argv or not all(isinstance(a, str) for a in argv):
        raise ValueError(f"endpoint must be a non-empty argv list, got {argv!r}")
    return argv


def _tool_spec(entry: dict) -> tl.ToolSpec:
    tool_id = entry["tool_id"]
    templates = entry.get("prompt_templates")
    if templates is None:
        templates = tl.default_templates(entry.get("action_hint", "any edit style"))
    else:
        templates = tuple(templates)
    if entry.get("kind", "builtin") == "builtin":
        profile = entry.get("profile", {})
        fields = {
            key: convert(profile[key])
            for key, convert in _PROFILE_FIELDS.items()
            if key in profile
        }
        kind = tl.ToolProfile(**{"edit_kind": "swap", **fields})
    else:
        kind = tl.ExternalTool(transport=text_endpoint(_endpoint_argv(entry)))
    return tl.ToolSpec(
        tool_id=tool_id,
        description=entry.get("description", tool_id),
        prompt_templates=templates,
        kind=kind,
    )


def load_toolset(path: str | None) -> tuple[tl.ToolSpec, ...]:
    if path is None:
        return tl.builtin_toolset()
    with open(path, encoding="utf-8") as handle:
        try:
            specs = [_tool_spec(entry) for entry in json.load(handle)["tools"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise orc.ConfigError(f"{path}: malformed tools config ({exc!r})") from exc
    if not specs:
        raise orc.ConfigError("tools config lists no tools")
    return tuple(specs)


def load_property_registry(path: str | None) -> dict[str, ev.PropertySpec]:
    registry = {pid: ev.builtin_property(pid) for pid in ev.BUILTIN_SURROGATES}
    if path is None:
        return registry
    with open(path, encoding="utf-8") as handle:
        try:
            for pid, entry in json.load(handle)["evaluators"].items():
                direction = entry.get("direction", ev.KNOWN_DIRECTIONS.get(pid, ev.MAXIMIZE))
                evaluator = ev.ExternalEvaluator(pid, json_endpoint(_endpoint_argv(entry)))
                registry[pid] = ev.PropertySpec(pid, direction, evaluator)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise orc.ConfigError(f"{path}: malformed evaluators config ({exc!r})") from exc
    return registry


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------


def ingest(
    path: str, known_properties: set[str], restrict_property: str | None = None
) -> tuple[list[DatasetEntry], int]:
    """Load dataset rows; invalid rows are skipped with a diagnostic."""
    entries: list[DatasetEntry] = []
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                smiles = row["smiles"]
                property_id = row["property"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                log.warning("%s:%d: skipping malformed row (%s)", path, lineno, exc)
                skipped += 1
                continue
            if property_id not in known_properties:
                log.warning("%s:%d: unknown property %r", path, lineno, property_id)
                skipped += 1
                continue
            if restrict_property is not None and property_id != restrict_property:
                log.warning(
                    "%s:%d: property %r does not match --property %r",
                    path, lineno, property_id, restrict_property,
                )
                skipped += 1
                continue
            try:
                mol = parse_smiles(smiles)
            except ParseError as exc:
                log.warning("%s:%d: unparseable SMILES %r (%s)", path, lineno, smiles, exc)
                skipped += 1
                continue
            entries.append(DatasetEntry(smiles, property_id, mol, row.get("reference")))
    return entries, skipped


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _campaign_configs(
    manifest: CampaignManifest,
    entries: list[DatasetEntry],
    tool_set: tuple[tl.ToolSpec, ...],
    registry: dict[str, ev.PropertySpec],
    buffer: TrajectoryBuffer | None,
) -> list[tuple[DatasetEntry, orc.RunConfig]]:
    return [
        (
            entry,
            orc.RunConfig(
                mode=manifest.mode,
                tool_set=tool_set,
                property_spec=registry[entry.property_id],
                steps=manifest.steps,
                tau=manifest.tau,
                seed=derive_seed(manifest.seed, canonical_form(entry.mol)),
                buffer=buffer,
                run_id=f"{manifest.mode}-s{manifest.seed}-{index}",
            ),
        )
        for index, entry in enumerate(entries)
    ]


def _run_campaigns(
    manifest: CampaignManifest,
    finish: Callable[[orc.CampaignResult, orc.RunConfig], object],
) -> tuple[list[tuple[DatasetEntry, object]], int]:
    """Load the configs and the dataset, then run one campaign per entry.

    Campaigns run on --jobs threads; finish(result, config) post-processes
    each one in its worker. A lead whose campaign raises yields the
    exception instead, so one lead cannot sink the run. Returns the
    (entry, outcome) pairs in dataset order and the skipped-row count.
    """
    tool_set = load_toolset(manifest.tools_config)
    registry = load_property_registry(manifest.evaluators_config)
    buffer = None
    if manifest.mode == orc.RETRIEVE:
        if manifest.buffer is None:
            raise orc.ConfigError("retrieve mode requires --buffer")
        buffer = TrajectoryBuffer.load(manifest.buffer)
    entries, skipped = ingest(manifest.dataset, set(registry), manifest.property_id)
    if not entries:
        raise EmptyDatasetError(f"{manifest.dataset}: no usable rows ({skipped} skipped)")
    configs = _campaign_configs(manifest, entries, tool_set, registry, buffer)

    def run_one(pair: tuple[DatasetEntry, orc.RunConfig]) -> tuple[DatasetEntry, object]:
        entry, config = pair
        try:
            return entry, finish(orc.run_campaign(config, entry.mol), config)
        except Exception as exc:  # per-lead failure must not sink the run
            log.error("campaign failed for %s: %s", entry.smiles, exc)
            return entry, exc

    if manifest.jobs > 1:
        with ThreadPoolExecutor(max_workers=manifest.jobs) as pool:
            return list(pool.map(run_one, configs)), skipped
    return [run_one(pair) for pair in configs], skipped


def run_command(manifest: CampaignManifest) -> int:
    outcomes, skipped = _run_campaigns(manifest, lambda result, config: orc.result_to_line(result))
    lines = [
        json.dumps(
            {"lead": entry.smiles, "property_id": entry.property_id, "error": str(outcome)},
            sort_keys=True,
        )
        if isinstance(outcome, Exception)
        else outcome
        for entry, outcome in outcomes
    ]
    write_lines_atomic(manifest.out, lines)
    log.info("wrote %d campaign records to %s (%d rows skipped)", len(lines), manifest.out, skipped)
    return 0


def build_buffer_command(manifest: CampaignManifest) -> int:
    """Run parallel-mode campaigns over training leads and store the winners."""
    outcomes, _ = _run_campaigns(manifest, orc.trajectory_from_campaign)
    buffer = TrajectoryBuffer()
    for _, outcome in outcomes:
        # None for a campaign without a storable success, an exception for a failed one.
        if isinstance(outcome, TrajectoryRecord):
            buffer.insert(outcome)
    buffer.flush(manifest.out)
    log.info(
        "stored %d/%d successful trajectories in %s", len(buffer), len(outcomes), manifest.out
    )
    return 0


def report_command(results_path: str, csv_path: str | None, label: str) -> int:
    outcomes = []
    errors = 0
    with open(results_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{results_path}:{lineno}: {exc}") from exc
            if "error" in record:
                errors += 1
                continue
            if "steps" not in record:
                raise SchemaError(f"{results_path}:{lineno}: not a campaign record")
            outcomes.append(mx.outcome_from_record(record))
    if not outcomes:
        raise EmptyDatasetError(f"{results_path}: no campaign records")
    report = mx.compile_report(outcomes)
    print(mx.render_table(report, label))
    if errors:
        print(f"failed_campaigns={errors}")
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(mx.per_step_csv(report))
        log.info("wrote per-step series to %s", csv_path)
    return 0


def validate_dataset_command(path: str, evaluators_config: str | None) -> int:
    registry = load_property_registry(evaluators_config)
    entries, skipped = ingest(path, set(registry))
    print(f"entries={len(entries)} skipped={skipped}")
    if not entries:
        raise EmptyDatasetError(f"{path}: no usable rows")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_manifest_args(parser: argparse.ArgumentParser, default_mode: str | None) -> None:
    if default_mode is None:
        parser.add_argument(
            "--mode", choices=orc.MODES, default=orc.ONLINE, help="execution budget policy"
        )
    parser.add_argument("--steps", type=int, default=3, help="exploration steps per lead")
    parser.add_argument("--tau", type=float, default=0.5, help="similarity threshold vs the lead")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--property", dest="property_id", default=None,
                        help="restrict the run to one property id")
    parser.add_argument("--dataset", required=True, help="line-delimited JSON dataset")
    parser.add_argument("--buffer", default=None, help="trajectory buffer file (retrieve mode)")
    parser.add_argument("--tools-config", default=None, help="JSON tool-set configuration")
    parser.add_argument("--evaluators-config", default=None, help="JSON evaluator endpoints")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent campaigns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadopt",
        description="Budget-aware multi-tool campaigns for constrained lead optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run campaigns over a dataset")
    _add_manifest_args(run_p, default_mode=None)

    buf_p = sub.add_parser("build-buffer", help="record winning trajectories from training leads")
    _add_manifest_args(buf_p, default_mode=orc.PARALLEL)

    rep_p = sub.add_parser("report", help="aggregate metrics from a results file")
    rep_p.add_argument("--results", required=True, help="results file from `run`")
    rep_p.add_argument("--csv", default=None, help="write per-step series here")
    rep_p.add_argument("--label", default="campaign", help="row label for the table")

    val_p = sub.add_parser("validate-dataset", help="check a dataset file")
    val_p.add_argument("--dataset", required=True)
    val_p.add_argument("--evaluators-config", default=None)

    return parser


def _manifest_from_args(args: argparse.Namespace, mode: str | None = None) -> CampaignManifest:
    return CampaignManifest(
        mode=mode if mode is not None else args.mode,
        steps=args.steps,
        tau=args.tau,
        seed=args.seed,
        property_id=args.property_id,
        dataset=args.dataset,
        out=args.out,
        buffer=args.buffer,
        tools_config=args.tools_config,
        evaluators_config=args.evaluators_config,
        jobs=args.jobs,
    )


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_command(_manifest_from_args(args))
        if args.command == "build-buffer":
            return build_buffer_command(_manifest_from_args(args, mode=orc.PARALLEL))
        if args.command == "report":
            return report_command(args.results, args.csv, args.label)
        if args.command == "validate-dataset":
            return validate_dataset_command(args.dataset, args.evaluators_config)
        raise AssertionError(f"unhandled command {args.command}")
    except (orc.ConfigError, EmptyDatasetError, SchemaError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
