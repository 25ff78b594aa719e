"""Per-layer metrics from the spans of one traced pass.

Every workload prints every metric in ``METRICS``; a layer a workload does
not use reads 0. Each ratio is printed next to its base (``*.calls``,
``orchestrate.candidates``, ``trace.self_s``).
"""

from __future__ import annotations

from collections import defaultdict

BUILTIN_TOOL_IDS = ("swap", "mutate", "ring", "flaky-swap")
LAYERS = ("molgraph", "fingerprint", "evaluate", "tools", "buffer", "orchestrate", "metrics", "cli")
TRANSPORTS = ("cli.text_endpoint", "cli.json_endpoint")

def _in_layer(layer: str):
    return lambda name: name.startswith(layer + ".")


# Self-time shares are reported for these parts; together they cover every span.
PARTS = {
    "molgraph.canonical_form": lambda name: name == "molgraph.canonical_form",
    "molgraph.other": lambda name: name.startswith("molgraph.") and name != "molgraph.canonical_form",
    "cli.transport": lambda name: name in TRANSPORTS,
    "cli.other": lambda name: name.startswith("cli.") and name not in TRANSPORTS,
    **{layer: _in_layer(layer) for layer in LAYERS if layer not in ("molgraph", "cli")},
}

# The parts expected to hold the largest share of each workload's self time.
DOMINANT = {
    "parallel": ("tools", "molgraph.canonical_form", "molgraph.other", "fingerprint"),
    "retrieve": ("buffer", "fingerprint"),
    "symmetric": ("molgraph.canonical_form",),
    "external": ("cli.transport",),
}

METRICS = (
    ("molgraph.validate.calls", "count"),
    ("molgraph.validate.self_s", "s"),
    ("molgraph.validate.per_candidate", "calls/candidate"),
    ("molgraph.parse_smiles.calls", "count"),
    ("molgraph.parse_smiles.self_s", "s"),
    ("molgraph.write_smiles.calls", "count"),
    ("molgraph.write_smiles.self_s", "s"),
    ("molgraph.canonical_form.calls", "count"),
    ("molgraph.canonical_form.self_s", "s"),
    ("molgraph.canonical_form.max_ms", "ms"),
    ("fingerprint.morgan_fp.calls", "count"),
    ("fingerprint.morgan_fp.self_s", "s"),
    ("fingerprint.tanimoto.calls", "count"),
    ("fingerprint.tanimoto.self_s", "s"),
    ("evaluate.evaluate.calls", "count"),
    ("evaluate.evaluate.self_s", "s"),
    ("evaluate.external.calls", "count"),
    ("evaluate.external.p50_ms", "ms"),
    ("evaluate.external.p90_ms", "ms"),
    ("evaluate.external.errors", "count"),
    ("tools.invoke.calls", "count"),
    ("tools.invoke.self_s", "s"),
    *((f"tools.invoke.{tool_id}.self_s", "s") for tool_id in BUILTIN_TOOL_IDS),
    ("tools.unavailable", "count"),
    ("buffer.load.self_s", "s"),
    ("buffer.load.records", "count"),
    ("buffer.top1_similar.calls", "count"),
    ("buffer.top1_similar.self_s", "s"),
    ("buffer.top1_similar.p50_us", "us"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.flush.self_s", "s"),
    ("orchestrate.run_campaign.calls", "count"),
    ("orchestrate.run_campaign.self_s", "s"),
    ("orchestrate.run_campaign.p50_ms", "ms"),
    ("orchestrate.run_campaign.p90_ms", "ms"),
    ("orchestrate.run_campaign.max_ms", "ms"),
    ("orchestrate.run_step.calls", "count"),
    ("orchestrate.run_step.self_s", "s"),
    ("orchestrate.candidates", "count"),
    ("orchestrate.pass_ratio", "ratio"),
    ("orchestrate.retry_ratio", "ratio"),
    ("orchestrate.rescue_ratio", "ratio"),
    ("metrics.compile_report.self_s", "s"),
    ("cli.ingest.self_s", "s"),
    ("cli.text_endpoint.calls", "count"),
    ("cli.text_endpoint.p50_ms", "ms"),
    ("cli.text_endpoint.p90_ms", "ms"),
    ("cli.json_endpoint.calls", "count"),
    ("cli.json_endpoint.p50_ms", "ms"),
    ("cli.json_endpoint.p90_ms", "ms"),
    ("campaign.success_rate", "%"),
    ("campaign.rel_improvement_pct", "%"),
    ("campaign.endpoint_calls_per_lead", "requests"),
    *((f"share.{part}.self_pct", "%") for part in PARTS),
    ("trace.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * share // 1)
    return ordered[max(1, int(rank)) - 1]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(spans, quality: dict, leads: int, tau: float, endpoint_calls: int, overhead_pct: float):
    """``{name: (value, unit)}`` for every entry of ``METRICS``."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return float(len(by_name[name]))

    def self_s(name, keep=lambda span: True):
        return sum(span.self_ns for span in by_name[name] if keep(span)) / 1e9

    def duration_ms(name, share):
        return percentile([span.duration_ns / 1e6 for span in by_name[name]], share)

    total_self = sum(span.self_ns for span in spans)
    values = {
        "molgraph.validate.per_candidate": ratio(
            calls("molgraph.validate"), quality.get("candidates", 0.0)
        ),
        "molgraph.canonical_form.max_ms": duration_ms("molgraph.canonical_form", 1.0),
        "evaluate.external.errors": float(
            sum(span.error is not None for span in by_name["evaluate.external"])
        ),
        "tools.unavailable": float(
            sum(span.error == "ToolUnavailableError" for span in by_name["tools.invoke"])
        ),
        "buffer.load.records": float(sum(span.note or 0 for span in by_name["buffer.load"])),
        "buffer.top1_similar.p50_us": 1000.0 * duration_ms("buffer.top1_similar", 0.5),
        "buffer.hit_ratio": ratio(
            sum(span.note is not None and span.note >= tau for span in by_name["buffer.top1_similar"]),
            calls("buffer.top1_similar"),
        ),
        "orchestrate.candidates": quality.get("candidates", 0.0),
        "orchestrate.pass_ratio": quality.get("pass_ratio", 0.0),
        "orchestrate.retry_ratio": quality.get("retry_ratio", 0.0),
        "orchestrate.rescue_ratio": quality.get("rescue_ratio", 0.0),
        "campaign.success_rate": quality.get("success_rate", 0.0),
        "campaign.rel_improvement_pct": quality.get("rel_improvement_pct", 0.0),
        "campaign.endpoint_calls_per_lead": endpoint_calls / leads,
        "trace.self_s": total_self / 1e9,
        "trace.overhead_pct": overhead_pct,
    }
    for tool_id in BUILTIN_TOOL_IDS:
        values[f"tools.invoke.{tool_id}.self_s"] = self_s(
            "tools.invoke", lambda span, tool_id=tool_id: span.note == tool_id
        )
    for part, member in PARTS.items():
        part_ns = sum(span.self_ns for span in spans if member(span.name))
        values[f"share.{part}.self_pct"] = 100.0 * ratio(part_ns, total_self)

    metrics = {}
    for name, unit in METRICS:
        if name in values:
            value = values[name]
        else:
            span_name, _, stat = name.rpartition(".")
            if stat == "calls":
                value = calls(span_name)
            elif stat == "self_s":
                value = self_s(span_name)
            elif stat == "p50_ms":
                value = duration_ms(span_name, 0.5)
            elif stat == "p90_ms":
                value = duration_ms(span_name, 0.9)
            elif stat == "max_ms":
                value = duration_ms(span_name, 1.0)
            else:
                raise KeyError(name)
        metrics[name] = (float(value), unit)
    return metrics


def dominant_share(workload: str, metrics) -> tuple[float, str, float]:
    """(share of the expected dominant parts, largest other part, its share)."""
    group = DOMINANT[workload]
    shares = {part: metrics[f"share.{part}.self_pct"][0] for part in PARTS}
    inside = sum(shares[part] for part in group)
    other = max((part for part in PARTS if part not in group), key=lambda part: shares[part])
    return inside, other, shares[other]


def design_lines(workload: str, metrics) -> list[str]:
    inside, other, other_share = dominant_share(workload, metrics)
    verdict = "holds" if inside > other_share else "does NOT hold"
    return [
        f"design: {' + '.join(DOMINANT[workload])} {verdict} the largest share of traced"
        f" self time: {inside:.1f}% (largest other part: {other} {other_share:.1f}%)"
    ]
