import json
import sys

import pytest

from leadopt import cli
from leadopt.buffer import TrajectoryBuffer
from leadopt.molgraph import canonical_form

from _molbuild import lead_pool

LEADS = [canonical_form(mol) for mol in lead_pool(701, 10)]


def write_dataset(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def dataset_rows(property_id="plogp", leads=None):
    return [{"smiles": smiles, "property": property_id} for smiles in leads or LEADS]


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "leads.jsonl"
    write_dataset(path, dataset_rows())
    return str(path)


# -- ingestion ----------------------------------------------------------------


def test_ingest_well_formed(dataset):
    entries, skipped = cli.ingest(dataset, {"plogp"})
    assert len(entries) == len(LEADS)
    assert skipped == 0
    assert entries[0].property_id == "plogp"


def test_ingest_skips_bad_rows(tmp_path):
    path = tmp_path / "mixed.jsonl"
    write_dataset(
        path,
        [
            {"smiles": "CCO", "property": "plogp"},
            {"smiles": "C1CC", "property": "plogp"},  # unmatched ring digit
            {"smiles": "CCO", "property": "unknown"},
            {"property": "plogp"},  # missing smiles
            {"smiles": "CCN", "property": "qed", "reference": "CCO"},
        ],
    )
    entries, skipped = cli.ingest(str(path), {"plogp", "qed"})
    assert len(entries) == 2
    assert skipped == 3
    assert entries[1].reference == "CCO"


def test_ingest_conservation(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = dataset_rows() + [{"smiles": "???", "property": "plogp"}]
    write_dataset(path, rows)
    entries, skipped = cli.ingest(str(path), {"plogp"})
    assert len(entries) + skipped == len(rows)


def test_ingest_property_restriction(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_dataset(
        path,
        [{"smiles": "CCO", "property": "plogp"}, {"smiles": "CCN", "property": "qed"}],
    )
    entries, skipped = cli.ingest(str(path), {"plogp", "qed"}, restrict_property="qed")
    assert [e.property_id for e in entries] == ["qed"]
    assert skipped == 1


# -- run ----------------------------------------------------------------------


def test_run_produces_one_record_per_lead(dataset, tmp_path):
    out = tmp_path / "results.jsonl"
    code = cli.main(
        ["run", "--mode", "online", "--dataset", dataset, "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(LEADS)
    records = [json.loads(line) for line in lines]
    assert [r["lead"] for r in records] == LEADS  # input order preserved
    assert all(r["mode"] == "online" for r in records)


def test_run_deterministic_bytes(dataset, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for out, jobs in ((first, "1"), (second, "4")):
        cli.main(
            [
                "run", "--mode", "online", "--dataset", dataset,
                "--seed", "42", "--out", str(out), "--jobs", jobs,
            ]
        )
    assert first.read_bytes() == second.read_bytes()


def test_run_retrieve_without_buffer_is_config_error(dataset, tmp_path):
    code = cli.main(
        ["run", "--mode", "retrieve", "--dataset", dataset, "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_run_empty_dataset_fails(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    code = cli.main(["run", "--dataset", str(path), "--out", str(tmp_path / "x")])
    assert code == 2


def test_stagnant_lead_still_recorded(tmp_path):
    dataset = tmp_path / "one.jsonl"
    write_dataset(dataset, dataset_rows(leads=[LEADS[0]]))
    out = tmp_path / "results.jsonl"
    code = cli.main(
        [
            "run", "--mode", "online", "--dataset", str(dataset),
            "--tau", "1.0", "--out", str(out),
        ]
    )
    assert code == 0
    record = json.loads(out.read_text().strip())
    assert record["best_seen"] is None
    assert len(record["steps"]) == 3


# -- build-buffer ---------------------------------------------------------------


def test_build_buffer_and_retrieve_run(dataset, tmp_path):
    buffer_path = tmp_path / "buffer.jsonl"
    code = cli.main(
        ["build-buffer", "--dataset", dataset, "--seed", "7", "--out", str(buffer_path)]
    )
    assert code == 0
    buffer = TrajectoryBuffer.load(str(buffer_path))
    assert len(buffer) > 0
    for record in buffer.records("plogp"):
        assert len(record.actions) == 3
        assert record.final_relative_improvement >= 0

    out = tmp_path / "retrieve.jsonl"
    code = cli.main(
        [
            "run", "--mode", "retrieve", "--dataset", dataset, "--seed", "8",
            "--buffer", str(buffer_path), "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == len(LEADS)


def test_build_buffer_stores_only_successes(dataset, tmp_path):
    # tau = 1.0 defeats every campaign, so nothing qualifies for the buffer.
    path = tmp_path / "buffer.jsonl"
    code = cli.main(
        ["build-buffer", "--dataset", dataset, "--tau", "1.0", "--out", str(path)]
    )
    assert code == 0
    assert len(TrajectoryBuffer.load(str(path))) == 0


def test_build_buffer_rerun_byte_identical(dataset, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for path in (first, second):
        cli.main(["build-buffer", "--dataset", dataset, "--seed", "7", "--out", str(path)])
    assert first.read_bytes() == second.read_bytes()


# -- report -----------------------------------------------------------------------


def test_report_renders_table_and_csv(dataset, tmp_path, capsys):
    out = tmp_path / "results.jsonl"
    cli.main(["run", "--mode", "parallel", "--dataset", dataset, "--seed", "3", "--out", str(out)])
    csv_path = tmp_path / "series.csv"
    code = cli.main(
        ["report", "--results", str(out), "--csv", str(csv_path), "--label", "parallel"]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "SR" in table and "parallel" in table
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,error_rate,rescue_rate,best_from,novelty"
    assert len(lines) == 4


def test_report_zero_successes(tmp_path, capsys):
    dataset = tmp_path / "one.jsonl"
    write_dataset(dataset, dataset_rows(leads=[LEADS[0]]))
    out = tmp_path / "results.jsonl"
    cli.main(
        ["run", "--mode", "online", "--dataset", str(dataset), "--tau", "1.0", "--out", str(out)]
    )
    code = cli.main(["report", "--results", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "0.00" in table and "--" in table


def test_report_crafted_success_rate(tmp_path, capsys):
    # Three successes, one failure: SR 75.00 passes straight through.
    records = []
    for index in range(4):
        succeeded = index < 3
        records.append(
            {
                "lead": f"C{'C' * index}O",
                "property_id": "plogp",
                "mode": "online",
                "seed": 0,
                "run_id": f"r{index}",
                "initial_value": 1.0,
                "invocation_count": 1,
                "best_seen": (
                    {
                        "smiles": "CCN",
                        "value": 2.0,
                        "sim": 0.8,
                        "improvement": 1.0,
                        "relative_improvement": 1.0,
                        "step_index": 0,
                    }
                    if succeeded
                    else None
                ),
                "steps": [
                    {
                        "step_index": 0,
                        "start": "CCO",
                        "plan": [{"tool_id": "swap", "prompt_index": 0}],
                        "attempts": [
                            {
                                "tool_id": "swap",
                                "prompt_index": 0,
                                "retry": False,
                                "candidates": [
                                    {
                                        "smiles": "CCN",
                                        "valid": True,
                                        "canonical": "CCN",
                                        "sim_to_lead": 0.8,
                                        "value": 2.0,
                                        "improvement_vs_lead": 1.0 if succeeded else -1.0,
                                        "failure_kind": None if succeeded else "no_improvement",
                                        "passed": succeeded,
                                    }
                                ],
                            }
                        ],
                        "chosen": None,
                        "rescued": False,
                    }
                ],
            }
        )
    path = tmp_path / "crafted.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    assert cli.main(["report", "--results", str(path)]) == 0
    assert "75.00" in capsys.readouterr().out


def test_report_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n", encoding="utf-8")
    assert cli.main(["report", "--results", str(path)]) == 2


# -- validate-dataset ---------------------------------------------------------------


def test_validate_dataset_ok(dataset, capsys):
    assert cli.main(["validate-dataset", "--dataset", dataset]) == 0
    assert f"entries={len(LEADS)} skipped=0" in capsys.readouterr().out


def test_validate_dataset_empty(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert cli.main(["validate-dataset", "--dataset", str(path)]) == 2


def test_per_lead_failure_does_not_sink_the_run(tmp_path, capsys):
    # An evaluator that crashes on one specific lead: that lead gets an
    # error record, the remaining campaigns stream normally.
    eval_script = tmp_path / "eval.py"
    eval_script.write_text(
        "import json, sys\n"
        "request = json.loads(sys.stdin.read())\n"
        "values = []\n"
        "for s in request['smiles_list']:\n"
        "    if s.count('N') >= 1:\n"
        "        raise SystemExit('refusing nitrogen')\n"
        "    values.append(float(len(s)))\n"
        "print(json.dumps({'values': values, 'errors': []}))\n",
        encoding="utf-8",
    )
    evaluators_config = tmp_path / "evaluators.json"
    evaluators_config.write_text(
        json.dumps(
            {"evaluators": {"size": {"direction": "maximize", "endpoint": [sys.executable, str(eval_script)]}}}
        ),
        encoding="utf-8",
    )
    dataset = tmp_path / "data.jsonl"
    write_dataset(
        dataset,
        [
            {"smiles": "CCCCCCCCCC", "property": "size"},
            {"smiles": "NCCCCCCCCC", "property": "size"},  # lead evaluation fails
            {"smiles": "OCCCCCCCCC", "property": "size"},
        ],
    )
    out = tmp_path / "results.jsonl"
    code = cli.main(
        [
            "run", "--mode", "online", "--dataset", str(dataset),
            "--evaluators-config", str(evaluators_config),
            "--steps", "1", "--out", str(out),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(records) == 3
    assert "error" in records[1]
    assert "steps" in records[0] and "steps" in records[2]
    # report() skips the error record and surfaces its count.
    assert cli.main(["report", "--results", str(out)]) == 0
    assert "failed_campaigns=1" in capsys.readouterr().out


# -- configuration files -----------------------------------------------------------


def test_tools_config_honours_profile_keys(tmp_path):
    config = tmp_path / "tools.json"
    profile = {"edit_kind": "mutate", "palette": ["F", "Cl"], "aggressive_edits": 3}
    config.write_text(json.dumps({"tools": [{"tool_id": "halo", "profile": profile}]}))
    (spec,) = cli.load_toolset(str(config))
    assert spec.kind.edit_kind == "mutate"
    assert spec.kind.palette == ("F", "Cl")
    assert spec.kind.aggressive_edits == 3


@pytest.mark.parametrize(
    "flag, document",
    [
        pytest.param("--tools-config", {"tools": [{"kind": "builtin"}]}, id="no-tool_id"),
        pytest.param(
            "--tools-config", {"tools": [{"tool_id": "x", "kind": "external"}]}, id="no-tool-endpoint"
        ),
        pytest.param(
            "--tools-config",
            {"tools": [{"tool_id": "x", "kind": "external", "endpoint": "python3 tool.py"}]},
            id="string-tool-endpoint",
        ),
        pytest.param("--tools-config", "{not json", id="tools-not-json"),
        pytest.param(
            "--tools-config",
            {"tools": [{"tool_id": "x", "profile": {"edit_kind": "bogus"}}]},
            id="bogus-edit_kind",
        ),
        pytest.param(
            "--tools-config",
            {"tools": [{"tool_id": "x", "profile": {"palette": ["C", "Xe"]}}]},
            id="bad-palette-element",
        ),
        pytest.param(
            "--tools-config",
            {"tools": [{"tool_id": "x", "profile": {"aggressive_edits": 0}}]},
            id="zero-aggressive_edits",
        ),
        pytest.param(
            "--evaluators-config",
            {"evaluators": {"size": {"direction": "maximize"}}},
            id="no-evaluator-endpoint",
        ),
        pytest.param(
            "--evaluators-config",
            {"evaluators": {"size": {"endpoint": "python3 eval.py"}}},
            id="string-evaluator-endpoint",
        ),
        pytest.param("--evaluators-config", "{not json", id="evaluators-not-json"),
    ],
)
def test_malformed_config_exits_2(dataset, tmp_path, flag, document):
    config = tmp_path / "config.json"
    config.write_text(document if isinstance(document, str) else json.dumps(document))
    out = tmp_path / "results.jsonl"
    assert cli.main(["run", "--dataset", dataset, flag, str(config), "--out", str(out)]) == 2
    assert not out.exists()


# -- external endpoints through configs ----------------------------------------------


def test_external_tool_and_evaluator_endpoints(tmp_path):
    tool_script = tmp_path / "tool.py"
    tool_script.write_text(
        "import json, sys\n"
        "request = json.loads(sys.stdin.read())\n"
        "prefix = request['smiles'].strip()\n"
        "print('proposal: <SMILES>' + prefix + 'C</SMILES>')\n",
        encoding="utf-8",
    )
    eval_script = tmp_path / "eval.py"
    eval_script.write_text(
        "import json, sys\n"
        "request = json.loads(sys.stdin.read())\n"
        "values = [float(len(s)) for s in request['smiles_list']]\n"
        "print(json.dumps({'values': values, 'errors': []}))\n",
        encoding="utf-8",
    )
    tools_config = tmp_path / "tools.json"
    tools_config.write_text(
        json.dumps(
            {
                "tools": [
                    {
                        "tool_id": "chain-extender",
                        "kind": "external",
                        "endpoint": [sys.executable, str(tool_script)],
                        "description": "appends one carbon",
                    }
                ]
            }
        ),
        encoding="utf-8",
    )
    evaluators_config = tmp_path / "evaluators.json"
    evaluators_config.write_text(
        json.dumps(
            {"evaluators": {"chainlen": {"direction": "maximize", "endpoint": [sys.executable, str(eval_script)]}}}
        ),
        encoding="utf-8",
    )
    dataset = tmp_path / "data.jsonl"
    write_dataset(dataset, [{"smiles": "CCCCCCCCCCCCCCCC", "property": "chainlen"}])
    out = tmp_path / "results.jsonl"
    code = cli.main(
        [
            "run", "--mode", "online", "--dataset", str(dataset),
            "--tools-config", str(tools_config),
            "--evaluators-config", str(evaluators_config),
            "--steps", "2", "--out", str(out),
        ]
    )
    assert code == 0
    record = json.loads(out.read_text().strip())
    assert record["best_seen"] is not None
    assert record["invocation_count"] >= 2
    all_tools = {
        attempt["tool_id"]
        for step in record["steps"]
        for attempt in step["attempts"]
    }
    assert all_tools == {"chain-extender"}
