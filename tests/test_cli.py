import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from leadopt import cli
from leadopt import endpoint as ep
from leadopt import orchestrate as orc
from leadopt.buffer import (
    SchemaError,
    StepOutcome,
    ToolAction,
    TrajectoryBuffer,
    TrajectoryRecord,
    verify_records,
)
from leadopt.fingerprint import morgan_fp
from leadopt.molgraph import canonical_form, parse_smiles

from _molbuild import lead_pool
from test_buffer import MALFORMED_BUFFERS, NON_JSON_SPACES, non_json_space_lines, write_buffer_lines

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
    assert [entry.smiles for entry in entries] == ["CCO", "CCN"]  # an extra key is ignored
    assert skipped == 3


@pytest.mark.parametrize(
    "row",
    [
        pytest.param({"smiles": 123, "property": "qed"}, id="numeric-smiles"),
        pytest.param({"smiles": "CCO", "property": ["qed"]}, id="list-property"),
    ],
)
def test_ingest_skips_non_string_fields(tmp_path, row, caplog):
    path = tmp_path / "rows.jsonl"
    write_dataset(path, [row, {"smiles": "CCN", "property": "qed"}])
    entries, skipped = cli.ingest(str(path), {"qed"})
    assert [entry.smiles for entry in entries] == ["CCN"]
    assert skipped == 1
    assert f"{path}:1: skipping malformed row" in caplog.text


def test_ingest_conservation(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = dataset_rows() + [{"smiles": "???", "property": "plogp"}]
    write_dataset(path, rows)
    entries, skipped = cli.ingest(str(path), {"plogp"})
    assert len(entries) + skipped == len(rows)


@pytest.mark.parametrize("command", ["run", "validate-dataset"])
def test_undecodable_dataset_row_is_skipped(tmp_path, command, caplog, capsys):
    # Line 3 holds a byte that is not UTF-8; the lines before it end in
    # \r\n and \r, which must count as line ends, as in text mode.
    good = json.dumps({"smiles": "CCO", "property": "plogp"}).encode()
    path = tmp_path / "rows.jsonl"
    path.write_bytes(good + b"\r\n" + good + b"\r" + b'{"smiles": "CC\xff", "property": "plogp"}\n')
    argv = [command, "--dataset", str(path)]
    if command == "run":
        argv += ["--steps", "1", "--out", str(tmp_path / "results.jsonl")]
    assert cli.main(argv) == 0
    assert f"{path}:3: skipping malformed row" in caplog.text
    if command == "run":
        assert len((tmp_path / "results.jsonl").read_text().splitlines()) == 2
    else:
        assert "entries=2 skipped=1" in capsys.readouterr().out


def test_row_with_more_ring_closures_than_the_writer_has_digits_is_skipped(tmp_path, caplog):
    # 400 linked phenyls: a valid molecule whose canonical form would need
    # 400 ring-closure digits, where SMILES has 99.
    path = tmp_path / "rows.jsonl"
    write_dataset(path, [{"smiles": "c1ccc(cc1)" * 400 + "C", "property": "plogp"}] + dataset_rows(leads=LEADS[:1]))
    out = tmp_path / "results.jsonl"
    assert cli.main(["run", "--dataset", str(path), "--steps", "1", "--out", str(out)]) == 0
    assert f"{path}:1: unparseable SMILES" in caplog.text
    assert "400 ring closures" in caplog.text
    assert [json.loads(line)["lead"] for line in out.read_text().splitlines()] == LEADS[:1]


def test_row_with_a_non_ascii_digit_is_skipped(tmp_path, caplog):
    path = tmp_path / "rows.jsonl"
    write_dataset(path, [{"smiles": "C²CC", "property": "plogp"}] + dataset_rows(leads=LEADS[:1]))
    out = tmp_path / "results.jsonl"
    assert cli.main(["run", "--dataset", str(path), "--steps", "1", "--out", str(out)]) == 0
    assert f"{path}:1: unparseable SMILES" in caplog.text
    assert [json.loads(line)["lead"] for line in out.read_text().splitlines()] == LEADS[:1]


@pytest.mark.parametrize("padded", [True, False], ids=["padded", "lone"])
@pytest.mark.parametrize("space", NON_JSON_SPACES, ids=repr)
def test_row_with_whitespace_json_does_not_allow_is_skipped(tmp_path, space, padded, caplog):
    # str.strip() used to remove these, so the padded row read as JSON and
    # the lone one was skipped as blank without a warning.
    row = json.dumps({"smiles": "CCN", "property": "plogp"})
    path = tmp_path / "rows.jsonl"
    line = row + space if padded else space
    path.write_text(json.dumps({"smiles": "CCO", "property": "plogp"}) + "\n" + line + "\n")
    entries, skipped = cli.ingest(str(path), {"plogp"})
    assert [entry.smiles for entry in entries] == ["CCO"]
    assert skipped == 1
    assert f"{path}:2: skipping malformed row" in caplog.text


def test_row_nested_deeper_than_the_json_decoder_recurses_is_skipped(tmp_path, caplog):
    path = tmp_path / "rows.jsonl"
    path.write_text("[" * 100_000 + "\n" + json.dumps({"smiles": "CCO", "property": "plogp"}) + "\n")
    entries, skipped = cli.ingest(str(path), {"plogp"})
    assert [entry.smiles for entry in entries] == ["CCO"]
    assert skipped == 1
    assert f"{path}:1: skipping malformed row (JSON nested too deeply)" in caplog.text


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


def test_run_rejects_nan_tau(dataset, tmp_path):
    out = tmp_path / "results.jsonl"
    assert cli.main(["run", "--dataset", dataset, "--tau", "nan", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_rejects_jobs_below_1(dataset, tmp_path, jobs):
    out = tmp_path / "results.jsonl"
    assert cli.main(["run", "--dataset", dataset, "--jobs", jobs, "--out", str(out)]) == 2
    assert not out.exists()


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


@pytest.mark.parametrize(
    "record",
    [
        pytest.param({"steps": 5}, id="steps-not-a-list"),
        pytest.param({"steps": [5]}, id="step-not-an-object"),
        pytest.param({"steps": []}, id="no-lead"),
        pytest.param(5, id="not-an-object"),
    ],
)
def test_report_rejects_wrong_shaped_record(tmp_path, record, caplog):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert cli.main(["report", "--results", str(path)]) == 2
    assert f"{path}:1:" in caplog.text


def test_report_rejects_undecodable_line(tmp_path, caplog):
    path = tmp_path / "results.jsonl"
    path.write_bytes(b"\xff\n")
    assert cli.main(["report", "--results", str(path)]) == 2
    assert f"{path}:1:" in caplog.text


def campaign_record():
    """A one-step campaign record as the result writer lays it out."""
    candidate = {
        "smiles": "CCN", "valid": True, "canonical": "CCN", "sim_to_lead": 0.8, "value": 2.0,
        "improvement_vs_lead": 1.0, "failure_kind": None, "passed": True,
    }
    attempt = {"tool_id": "swap", "prompt_index": 0, "retry": False, "candidates": [candidate]}
    return {
        "lead": "CCO",
        "best_seen": {"sim": 0.8, "relative_improvement": 1.0, "step_index": 0},
        "steps": [{"step_index": 0, "attempts": [attempt]}],
    }


MISSING = object()  # the key is deleted instead of given a value
STEP = ("steps", 0)
ATTEMPT = STEP + ("attempts", 0)
CANDIDATE = ATTEMPT + ("candidates", 0)


@pytest.mark.parametrize(
    "keys, value",
    [
        pytest.param(("lead",), 5, id="lead-number"),
        pytest.param(("best_seen", "sim"), "abc", id="sim-text"),
        pytest.param(("best_seen", "sim"), None, id="sim-null"),
        pytest.param(("best_seen", "relative_improvement"), "x", id="ri-text"),
        pytest.param(("best_seen", "step_index"), 0.0, id="best-step-float"),
        pytest.param(("best_seen", "step_index"), 3, id="best-step-out-of-range"),
        pytest.param(STEP + ("step_index",), "0", id="step-index-text"),
        pytest.param(STEP + ("step_index",), -1, id="step-index-negative"),
        pytest.param(STEP + ("attempts",), {"a": 1}, id="attempts-object"),
        pytest.param(ATTEMPT + ("retry",), "no", id="retry-text"),
        pytest.param(ATTEMPT + ("prompt_index",), 0.5, id="prompt-index-float"),
        pytest.param(ATTEMPT + ("candidates",), "CCN", id="candidates-text"),
        pytest.param(CANDIDATE + ("valid",), "yes", id="valid-text"),
        pytest.param(CANDIDATE + ("passed",), 1, id="passed-int"),
        pytest.param(CANDIDATE + ("canonical",), ["CCN"], id="canonical-list"),
        pytest.param(CANDIDATE + ("improvement_vs_lead",), "1.0", id="gain-text"),
        pytest.param(CANDIDATE + ("improvement_vs_lead",), True, id="gain-bool"),
        pytest.param(("best_seen", "sim"), float("nan"), id="sim-nan"),
        pytest.param(("best_seen", "relative_improvement"), float("inf"), id="ri-infinity"),
        pytest.param(CANDIDATE + ("improvement_vs_lead",), float("nan"), id="gain-nan"),
        pytest.param(("best_seen", "sim"), 10**400, id="sim-beyond-float"),
        pytest.param(("best_seen",), MISSING, id="best-seen-missing"),
    ],
)
def test_report_rejects_wrongly_typed_value(tmp_path, caplog, keys, value):
    record = campaign_record()
    target = record
    for key in keys[:-1]:
        target = target[key]
    if value is MISSING:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert cli.main(["report", "--results", str(path)]) == 2
    assert f"{path}:1: malformed campaign record" in caplog.text


def test_report_reads_the_record_writer_layout(tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(campaign_record()) + "\n", encoding="utf-8")
    assert cli.main(["report", "--results", str(path)]) == 0


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


# -- worker processes ------------------------------------------------------------


class UnpicklableError(Exception):
    """Neither pickles (it holds a lambda) nor unpickles (two required args)."""

    def __init__(self, lead, reason):
        super().__init__(f"{reason}: {lead}")
        self.hook = lambda: lead


def test_failed_lead_crosses_the_jobs_boundary_as_its_message(dataset, tmp_path, monkeypatch):
    failing = LEADS[3]
    run_campaign = orc.run_campaign

    def flaky(config, lead):
        if canonical_form(lead) == failing:
            raise UnpicklableError(failing, "no campaign")
        return run_campaign(config, lead)

    monkeypatch.setattr(orc, "run_campaign", flaky)  # forked workers inherit the patch
    results = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"results-{jobs}.jsonl"
        buffer = tmp_path / f"buffer-{jobs}.jsonl"
        retrieved = tmp_path / f"retrieved-{jobs}.jsonl"  # at --jobs 1 too, from a forked worker
        common = ["--dataset", dataset, "--seed", "42", "--jobs", jobs]
        assert cli.main(["run", "--mode", "online", *common, "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        assert cli.main(["build-buffer", *common, "--out", str(buffer)]) == 0
        assert multiprocessing.active_children() == []
        assert cli.main(["run", "--mode", "retrieve", *common, "--buffer", str(buffer), "--out", str(retrieved)]) == 0
        assert multiprocessing.active_children() == []
        results[jobs] = out.read_bytes(), buffer.read_bytes(), retrieved.read_bytes()
        stored = TrajectoryBuffer.load(str(buffer))
        assert len(stored) > 0
        assert failing not in {record.lead for record in stored.records("plogp")}
    assert results["1"] == results["2"]
    for lines in (results["2"][0], results["2"][2]):
        records = [json.loads(line) for line in lines.splitlines()]
        assert records[3] == {"error": f"no campaign: {failing}", "lead": failing, "property_id": "plogp"}
        assert all("steps" in record for index, record in enumerate(records) if index != 3)


def test_jobs_starts_at_most_one_worker_per_lead(tmp_path, monkeypatch):
    dataset = tmp_path / "two.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS[:2]))
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    out = tmp_path / "results.jsonl"
    # Python 3.12+ warns when a process with threads forks. An error filter
    # does not fail the run there (os.fork drops the error), so record them.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--dataset", str(dataset), "--jobs", "8", "--out", str(out)]) == 0
    assert [str(warning.message) for warning in caught] == []
    assert forks == [os.getpid()] * 2
    assert multiprocessing.active_children() == []
    assert len(out.read_text().splitlines()) == 2


def test_jobs_above_1_without_fork_exits_2(dataset, tmp_path, monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    out = tmp_path / "results.jsonl"
    assert cli.main(["run", "--dataset", dataset, "--jobs", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert cli.main(["run", "--dataset", dataset, "--jobs", "1", "--out", str(out)]) == 0


def test_a_jobs_worker_that_dies_fails_the_run_with_status_2(dataset, tmp_path, monkeypatch, caplog):
    parent = os.getpid()
    run_campaign = orc.run_campaign

    def dies(config, lead):
        if canonical_form(lead) == LEADS[3] and os.getpid() != parent:
            os._exit(3)
        return run_campaign(config, lead)

    monkeypatch.setattr(orc, "run_campaign", dies)
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path)
    out = tmp_path / "results.jsonl"
    # A retrieve run at --jobs 1 runs its campaigns in one forked worker.
    for mode, jobs in (("online", "2"), ("retrieve", "1")):
        caplog.clear()
        argv = ["run", "--mode", mode, "--dataset", dataset, "--buffer", str(buffer_path), "--jobs", jobs]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert f"the worker running {LEADS[3]} exited with code 3" in caplog.text
        assert not out.exists()
        assert multiprocessing.active_children() == []


def _unreaped(pids: list[int]) -> list[int]:
    """The pids among ``pids`` that the run did not reap; each is killed and reaped here."""
    unreaped = []
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue  # the run reaped it
        unreaped.append(pid)
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return unreaped


def test_ctrl_c_while_the_jobs_workers_start_reaps_them(dataset, tmp_path, monkeypatch):
    forked = []
    fork = os.fork

    def fork_then_interrupt():
        pid = fork()
        if pid:  # in the run, Ctrl-C as soon as its first worker exists
            forked.append(pid)
            if len(forked) == 1:
                os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_interrupt)
    out = tmp_path / "results.jsonl"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "--dataset", dataset, "--jobs", "2", "--out", str(out)])
    assert _unreaped(forked) == []
    assert len(forked) == 2  # the interrupt waited until both workers had started
    assert not out.exists()


def _process_group(pgid: int) -> list[int]:
    """The pid of every process, zombies included, in group ``pgid``."""
    members = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # not a process, or one that has just gone
        if int(fields[2]) == pgid:  # fields: state, parent pid, group
            members.append(int(name))
    return members


def _start_in_own_group(tmp_path, args, jobs="2"):
    """``leadopt run --jobs 2`` in its own process group, as a shell starts
    a foreground job: Ctrl-C then signals the whole group."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "leadopt", "run", "--jobs", jobs, *args, "--out", str(tmp_path / "results.jsonl")]
    return subprocess.Popen(argv, env=env, start_new_session=True, stderr=subprocess.DEVNULL)


def _await_group(pgid, done, what):
    deadline = time.monotonic() + 30
    while not done(_process_group(pgid)):
        assert time.monotonic() < deadline, f"not {what} after 30 s: {_process_group(pgid)}"
        time.sleep(0.01)


def _kill_group(proc):
    if _process_group(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the process table from /proc")


@needs_proc
def test_ctrl_c_reaps_the_jobs_workers_and_writes_no_output(tmp_path):
    # Each worker waits on an evaluator endpoint that sleeps for a minute.
    eval_script = tmp_path / "eval.py"
    eval_script.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
    evaluators_config = tmp_path / "evaluators.json"
    evaluators_config.write_text(
        json.dumps({"evaluators": {"slow": {"endpoint": [sys.executable, str(eval_script)]}}}),
        encoding="utf-8",
    )
    dataset = tmp_path / "data.jsonl"
    write_dataset(dataset, dataset_rows("slow", LEADS[:2]))
    proc = _start_in_own_group(tmp_path, ["--dataset", str(dataset), "--evaluators-config", str(evaluators_config)])
    try:
        _await_group(proc.pid, lambda group: len(group) >= 5, "two workers and two endpoints running")
        os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=30)
        _await_group(proc.pid, lambda group: not group, "every process gone")
    finally:
        _kill_group(proc)
    assert proc.returncode != 0
    assert not (tmp_path / "results.jsonl").exists()


@needs_proc
def test_jobs_workers_exit_when_the_run_is_killed(tmp_path):
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS * 10))  # a few seconds of work
    proc = _start_in_own_group(tmp_path, ["--mode", "parallel", "--dataset", str(dataset)])
    try:
        _await_group(proc.pid, lambda group: len(group) >= 3, "two workers running")
        proc.kill()  # the run alone, as the out-of-memory killer would
        proc.wait(timeout=30)
        _await_group(proc.pid, lambda group: not group, "every worker gone")
    finally:
        _kill_group(proc)


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
        *(
            pytest.param("--tools-config", {"tools": [{"tool_id": "x", "profile": profile}]}, id=name)
            for name, profile in (
                ("nan-competence", {"competence": float("nan")}),
                ("text-nan-competence", {"competence": "nan"}),
                ("text-competence", {"competence": "0.5"}),
                ("bool-p_fail", {"p_fail": True}),
                ("infinite-fail_floor", {"fail_floor": float("inf")}),
                ("float-aggressive_edits", {"aggressive_edits": 2.9}),
                ("text-palette", {"palette": "CN"}),
                ("object-palette", {"palette": {"C": 1}}),
                ("text-profile", "competence"),
                ("list-profile", []),
                ("competence-above-1", {"competence": 7}),
                ("negative-p_fail", {"p_fail": -2}),
                ("fail_floor-above-1", {"fail_floor": 3}),
                ("fail_damping-above-1", {"fail_damping": 9}),
                ("negative-competence", {"competence": -0.1}),
                ("p_fail-just-above-1", {"p_fail": 1.0001}),
            )
        ),
        pytest.param(
            "--tools-config",
            {
                "tools": [
                    {"tool_id": "a", "profile": {"edit_kind": "swap"}},
                    {"tool_id": "a", "profile": {"edit_kind": "ring"}},
                ]
            },
            id="duplicate-tool_id",
        ),
        pytest.param("--tools-config", {"tools": [{"tool_id": ["a"]}]}, id="list-tool_id"),
        pytest.param("--tools-config", {"tools": [{"tool_id": 7}]}, id="numeric-tool_id"),
        pytest.param(
            "--tools-config", {"tools": [{"tool_id": "x", "description": 3}]}, id="numeric-description"
        ),
        pytest.param(
            "--tools-config",
            {"tools": [{"tool_id": "x", "prompt_templates": [1, 2, 3, 4, 5, 6]}]},
            id="numeric-templates",
        ),
        pytest.param(
            "--tools-config",
            {"tools": [{"tool_id": "x", "prompt_templates": ["a", "b", "c", "d", "e", None]}]},
            id="null-template",
        ),
        pytest.param(
            "--tools-config",
            {"tools": [{"tool_id": "x", "prompt_templates": "abcdef"}]},
            id="text-templates",
        ),
        *(
            pytest.param(
                "--tools-config",
                {"tools": [{"tool_id": "x", "prompt_templates": [template, "b", "c", "d", "e", "f"]}]},
                id=f"template-{name}",
            )
            for template, name in (
                ("{x}", "unknown-name"),
                ("{}", "positional"),
                ("{", "unbalanced-brace"),
                ("{goal.x}", "goal-attribute"),
            )
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
        pytest.param("--tools-config", '{"tools": ' + "[" * 100_000, id="tools-nested-too-deeply"),
        pytest.param(
            "--evaluators-config", '{"evaluators": ' + "[" * 100_000, id="evaluators-nested-too-deeply"
        ),
    ],
)
def test_malformed_config_exits_2(dataset, tmp_path, flag, document):
    config = tmp_path / "config.json"
    config.write_text(document if isinstance(document, str) else json.dumps(document))
    out = tmp_path / "results.jsonl"
    assert cli.main(["run", "--dataset", dataset, flag, str(config), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("lead", ["C1CC", 5], ids=["unparseable-lead", "numeric-lead"])
def test_retrieve_with_bad_buffer_lead_exits_2(dataset, tmp_path, lead, caplog):
    buffer_path = tmp_path / "buffer.jsonl"
    assert cli.main(["build-buffer", "--dataset", dataset, "--seed", "3", "--out", str(buffer_path)]) == 0
    records = [json.loads(line) for line in buffer_path.read_text().splitlines()]
    records[0]["lead"] = lead
    buffer_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "results.jsonl"
    code = cli.main(
        ["run", "--mode", "retrieve", "--dataset", dataset, "--buffer", str(buffer_path), "--out", str(out)]
    )
    assert code == 2
    assert f"{buffer_path}:1:" in caplog.text
    assert not out.exists()


def test_retrieve_with_undecodable_buffer_line_exits_2(dataset, tmp_path, caplog):
    buffer_path = tmp_path / "buffer.jsonl"
    buffer_path.write_bytes(b"\xff\n")
    out = tmp_path / "results.jsonl"
    code = cli.main(
        ["run", "--mode", "retrieve", "--dataset", dataset, "--buffer", str(buffer_path), "--out", str(out)]
    )
    assert code == 2
    assert f"{buffer_path}:1:" in caplog.text


@pytest.mark.parametrize("padded", [True, False], ids=["padded", "lone"])
@pytest.mark.parametrize("space", ["\u3000", "\x1c"], ids=repr)
def test_retrieve_with_buffer_line_of_whitespace_json_does_not_allow_exits_2(dataset, tmp_path, space, padded, caplog):
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer_lines(buffer_path, non_json_space_lines(space, padded))
    out = tmp_path / "results.jsonl"
    code = cli.main(
        ["run", "--mode", "retrieve", "--dataset", dataset, "--buffer", str(buffer_path), "--out", str(out)]
    )
    assert code == 2
    assert f"{buffer_path}:2:" in caplog.text
    assert not out.exists()


# -- the retrieve buffer's verifier --------------------------------------------------

JOBS = pytest.mark.parametrize("jobs", ["1", "2"], ids=lambda jobs: f"jobs{jobs}")


def write_buffer(path, leads=LEADS[:6]):
    """One stored plogp trajectory per lead, in lead order; returns the lines."""
    buffer = TrajectoryBuffer()
    for index, smiles in enumerate(leads):
        mol = parse_smiles(smiles)
        outcome = StepOutcome(canonical_form(mol), 1.0, 1.0)
        buffer.insert(
            TrajectoryRecord(
                canonical_form(mol), morgan_fp(mol), "plogp", (ToolAction("swap", 0),), (outcome,), 0.5, f"r{index}"
            )
        )
    buffer.flush(str(path))
    return path.read_text(encoding="utf-8").splitlines()


def with_bad_fingerprint(lines, lineno):
    """``lines`` with the fingerprint of line ``lineno`` taken from the line after it."""
    records = [json.loads(line) for line in lines]
    records[lineno - 1]["lead_fp_hex"] = records[lineno % len(records)]["lead_fp_hex"]
    return [json.dumps(record) for record in records]


def retrieve_argv(dataset, buffer_path, out, jobs):
    return [
        "run", "--mode", "retrieve", "--dataset", str(dataset), "--buffer", str(buffer_path),
        "--steps", "1", "--jobs", jobs, "--out", str(out),
    ]


@pytest.fixture()
def forked(monkeypatch):
    """The pid of every process the test forks."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture()
def campaigns(tmp_path, monkeypatch):
    """A file that gets one line per campaign started, in any process."""
    path = tmp_path / "campaigns.log"
    path.write_text("")
    run_campaign = orc.run_campaign

    def logged(config, lead):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(canonical_form(lead) + "\n")
        return run_campaign(config, lead)

    monkeypatch.setattr(orc, "run_campaign", logged)  # forked workers inherit the patch
    return path


@JOBS
def test_verified_retrieve_run_forks_one_verifier_and_gives_the_bytes_of_in_line_verification(
    dataset, tmp_path, monkeypatch, forked, jobs
):
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path)
    out = tmp_path / "results.jsonl"
    # Python 3.12+ warns when a process with threads forks; a retrieve run
    # forks at --jobs 1 too. os.fork drops an error filter's error, so record them.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 0
    assert [str(warning.message) for warning in caught] == []
    assert len(forked) == 1 + int(jobs)  # the verifier, then the workers
    assert _unreaped(forked) == []

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    in_line = tmp_path / "in-line.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, in_line, "1")) == 0
    assert len(forked) == 1 + int(jobs)
    assert out.read_bytes() == in_line.read_bytes()


@JOBS
def test_at_most_jobs_processes_run_campaigns_and_the_verifier_runs_none(dataset, tmp_path, monkeypatch, jobs):
    pids = tmp_path / "pids.log"
    run_campaign = orc.run_campaign

    def logged(kind, call):
        def logging_call(*args):
            with open(pids, "a", encoding="ascii") as handle:
                handle.write(f"{kind} {os.getpid()}\n")
            return call(*args)

        return logging_call

    monkeypatch.setattr(orc, "run_campaign", logged("campaign", run_campaign))  # forked processes inherit the patches
    monkeypatch.setattr(cli, "verify_records", logged("verifier", verify_records))
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path)
    assert cli.main(retrieve_argv(dataset, buffer_path, tmp_path / "results.jsonl", jobs)) == 0
    logged_pids = [line.split() for line in pids.read_text().splitlines()]
    campaigns = [int(pid) for kind, pid in logged_pids if kind == "campaign"]
    (verifier,) = [int(pid) for kind, pid in logged_pids if kind == "verifier"]
    assert len(campaigns) == len(LEADS)
    assert 1 <= len(set(campaigns)) <= int(jobs)
    assert verifier not in campaigns
    assert os.getpid() not in [verifier, *campaigns]


@JOBS
def test_a_worker_that_outlives_terminate_does_not_hold_the_verdict(
    dataset, tmp_path, monkeypatch, caplog, forked, jobs
):
    # The worker ignores SIGTERM, as a pool process does once the SystemExit
    # of its handler is lost (say, raised in a finalizer), while the verifier
    # finds line 1 bad; the run must still exit 2 and reap it, not wait.
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer_lines(buffer_path, with_bad_fingerprint(write_buffer(buffer_path), 1))
    run_campaign = orc.run_campaign

    def deaf_campaign(config, mol):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(0.2)
        return run_campaign(config, mol)

    monkeypatch.setattr(orc, "run_campaign", deaf_campaign)
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 2
    assert f"{buffer_path}:1: stored fingerprint does not match lead" in caplog.text
    assert not out.exists()
    assert forked and _unreaped(forked) == []


@JOBS
@pytest.mark.parametrize("lineno", [1, 4])
def test_verifier_names_a_bad_fingerprint_line_and_writes_no_output(dataset, tmp_path, caplog, forked, jobs, lineno):
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer_lines(buffer_path, with_bad_fingerprint(write_buffer(buffer_path), lineno))
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 2
    assert f"{buffer_path}:{lineno}: stored fingerprint does not match lead" in caplog.text
    assert not out.exists()
    assert forked and _unreaped(forked) == []


@JOBS
@pytest.mark.parametrize(
    "mismatch, malformed, named",
    [(3, 5, 3), (5, 2, 2)],
    ids=["mismatch3-json5", "json2-mismatch5"],
)
def test_verification_before_a_malformed_line_is_in_line(
    dataset, tmp_path, caplog, forked, campaigns, jobs, mismatch, malformed, named
):
    buffer_path = tmp_path / "buffer.jsonl"
    lines = with_bad_fingerprint(write_buffer(buffer_path), mismatch)
    lines[malformed - 1] = "{not json"
    write_buffer_lines(buffer_path, lines)
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 2
    (unnamed,) = {mismatch, malformed} - {named}
    assert f"{buffer_path}:{named}: " in caplog.text
    assert f"{buffer_path}:{unnamed}:" not in caplog.text
    assert not out.exists()
    assert forked == []
    assert campaigns.read_text() == ""


@JOBS
def test_verifier_stops_a_many_lead_run_before_its_last_campaign(
    tmp_path, monkeypatch, caplog, forked, campaigns, jobs
):
    logged = orc.run_campaign

    def slow(config, lead):  # a whole run takes seconds; the verdict, milliseconds
        time.sleep(0.05)
        return logged(config, lead)

    monkeypatch.setattr(orc, "run_campaign", slow)
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer_lines(buffer_path, with_bad_fingerprint(write_buffer(buffer_path), 1))
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS * 4))
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 2
    assert f"{buffer_path}:1: stored fingerprint does not match lead" in caplog.text
    assert len(campaigns.read_text().splitlines()) < len(LEADS) * 4
    assert not out.exists()
    assert _unreaped(forked) == []


@JOBS
def test_a_killed_verifier_fails_the_run_with_status_2(dataset, tmp_path, monkeypatch, caplog, forked, jobs):
    parent = os.getpid()

    def killed(records):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return verify_records(records)

    monkeypatch.setattr(cli, "verify_records", killed)
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path)
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 2
    assert f"the verifier of {buffer_path} exited with code -9" in caplog.text
    assert not out.exists()
    assert _unreaped(forked) == []


@needs_proc
@JOBS
def test_ctrl_c_reaps_the_verifier_and_writes_no_output(tmp_path, jobs):
    # Each campaign waits on an evaluator endpoint that sleeps for a minute.
    eval_script = tmp_path / "eval.py"
    eval_script.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
    evaluators_config = tmp_path / "evaluators.json"
    evaluators_config.write_text(
        json.dumps({"evaluators": {"slow": {"endpoint": [sys.executable, str(eval_script)]}}}),
        encoding="utf-8",
    )
    dataset = tmp_path / "data.jsonl"
    write_dataset(dataset, dataset_rows("slow", LEADS[:2]))
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path)
    args = ["--mode", "retrieve", "--dataset", str(dataset), "--buffer", str(buffer_path),
            "--evaluators-config", str(evaluators_config)]
    proc = _start_in_own_group(tmp_path, args, jobs)
    # The run, its verifier, and a worker with its endpoint per job (at
    # --jobs 1 the run is the worker).
    running = 2 + (1 if jobs == "1" else 4)
    try:
        _await_group(proc.pid, lambda group: len(group) >= running, "the verifier and the endpoints running")
        os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=30)
        _await_group(proc.pid, lambda group: not group, "every process gone")
    finally:
        _kill_group(proc)
    assert proc.returncode != 0
    assert not (tmp_path / "results.jsonl").exists()


def test_main_restores_the_callers_sigterm_handler(dataset, tmp_path):
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert cli.main(["run", "--dataset", dataset, "--steps", "1", "--out", str(tmp_path / "results.jsonl")]) == 0
        assert signal.getsignal(signal.SIGTERM) is handler
        assert cli.main(["run", "--dataset", dataset, "--jobs", "0", "--out", str(tmp_path / "results.jsonl")]) == 2
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)


# Logs the length of the request it reads, then sleeps a minute before replying.
SLEEPING_TOOL = """\
import sys, time
payload = sys.stdin.buffer.read()
with open(sys.argv[1], "a", encoding="ascii") as handle:
    handle.write(f"{len(payload)}\\n")
time.sleep(60)
"""


@needs_proc
@JOBS
def test_sigterm_ends_a_run_with_status_143_and_leaves_nothing_running(tmp_path, jobs):
    script = tmp_path / "sleeping_tool.py"
    script.write_text(SLEEPING_TOOL, encoding="utf-8")
    requests = tmp_path / "requests.log"
    requests.write_text("")
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS[:4]))
    proc = _start_in_own_group(
        tmp_path, ["--dataset", str(dataset), *external_args(tmp_path, [sys.executable, str(script), str(requests)])], jobs
    )
    try:
        # Each process that runs campaigns has sent its first request, so the
        # process for its next request has started too.
        _await_group(proc.pid, lambda _: len(requests.read_text().splitlines()) == int(jobs), "each request sent")
        proc.send_signal(signal.SIGTERM)  # the run alone, as a service manager or `kill` would
        proc.wait(timeout=30)
        _await_group(proc.pid, lambda group: not group, "every process gone")
    finally:
        _kill_group(proc)
    assert proc.returncode == 143
    assert not (tmp_path / "results.jsonl").exists()
    # No waiting endpoint process read end of file as a request.
    sizes = [int(size) for size in requests.read_text().splitlines()]
    assert len(sizes) == int(jobs) and 0 not in sizes


@JOBS
@pytest.mark.parametrize("lines, case", MALFORMED_BUFFERS)
def test_verifier_and_load_name_the_same_line_and_error_class(tmp_path, jobs, lines, case):
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer_lines(buffer_path, lines(*case))
    with pytest.raises(SchemaError) as loaded:
        TrajectoryBuffer.load(str(buffer_path))
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, [{"smiles": "CCO", "property": "plogp"}])
    out = tmp_path / "results.jsonl"
    args = cli.build_parser().parse_args(retrieve_argv(dataset, buffer_path, out, jobs))
    with pytest.raises(SchemaError) as ran:
        cli.run_command(args)
    assert (type(ran.value), str(ran.value)) == (type(loaded.value), str(loaded.value))
    assert not out.exists()


# -- the verifier's chunks ------------------------------------------------------------


@pytest.fixture()
def chunks(tmp_path, monkeypatch):
    """Two buffer records per chunk, and a file that gets "pid line..." for
    each chunk verified, in any process."""
    monkeypatch.setattr(cli, "VERIFY_CHUNK", 2)
    path = tmp_path / "chunks.log"
    path.write_text("")

    def logged(records):
        with open(path, "a", encoding="ascii") as handle:
            handle.write(" ".join(str(n) for n in [os.getpid(), *(lineno for lineno, _ in records)]) + "\n")
        return verify_records(records)

    monkeypatch.setattr(cli, "verify_records", logged)  # forked processes inherit the patches
    return path


def verified_chunks(path):
    """(pid, line numbers) of each chunk verified, in the order the calls began."""
    logged = [line.split() for line in path.read_text().splitlines()]
    return [(int(pid), [int(lineno) for lineno in lines]) for pid, *lines in logged]


def slow_chunks(monkeypatch, seconds, first_lines=None):
    """Verifying a chunk takes ``seconds`` more, or only a chunk that starts at one of ``first_lines``."""
    verify = cli.verify_records

    def slow(records):
        if first_lines is None or records[0][0] in first_lines:
            time.sleep(seconds)
        return verify(records)

    monkeypatch.setattr(cli, "verify_records", slow)


@pytest.fixture()
def campaign_pids(tmp_path, monkeypatch):
    """A file that gets the pid of each process, once per campaign it starts."""
    path = tmp_path / "campaign_pids.log"
    path.write_text("")
    run_campaign = orc.run_campaign

    def logged(config, lead):
        with open(path, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()}\n")
        return run_campaign(config, lead)

    monkeypatch.setattr(orc, "run_campaign", logged)
    return path


@JOBS
@pytest.mark.parametrize(
    "bad_lines",
    [(1,), (4,), (6,), (2, 5), (4, 6)],
    ids=["first", "middle", "last", "first-and-last", "middle-and-last"],
)
def test_chunk_verdict_of_the_verifier_names_the_line_and_error_class_of_load(
    tmp_path, monkeypatch, forked, chunks, jobs, bad_lines
):
    buffer_path = tmp_path / "buffer.jsonl"
    lines = write_buffer(buffer_path)
    for lineno in bad_lines:
        lines = with_bad_fingerprint(lines, lineno)
    write_buffer_lines(buffer_path, lines)
    with pytest.raises(SchemaError) as loaded:
        TrajectoryBuffer.load(str(buffer_path))
    # The first chunk replies last, so that a later chunk's failure, if
    # any, comes first; the workers take chunks once their lead is done.
    slow_chunks(monkeypatch, 0.2, first_lines={1})
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS[:2]))
    out = tmp_path / "results.jsonl"
    args = cli.build_parser().parse_args(retrieve_argv(dataset, buffer_path, out, jobs))
    with pytest.raises(SchemaError) as ran:
        cli.run_command(args)
    assert (type(ran.value), str(ran.value)) == (type(loaded.value), str(loaded.value))
    assert f"{buffer_path}:{bad_lines[0]}: stored fingerprint does not match lead" == str(ran.value)
    assert not out.exists()
    assert len(forked) == 1 + int(jobs)
    assert _unreaped(forked) == []


@JOBS
def test_the_pool_verifies_every_record_exactly_once(dataset, tmp_path, monkeypatch, forked, chunks, jobs):
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path, LEADS)
    slow_chunks(monkeypatch, 0.05)
    assert cli.main(retrieve_argv(dataset, buffer_path, tmp_path / "results.jsonl", jobs)) == 0
    verified = verified_chunks(chunks)
    assert sorted(lineno for _, lines in verified for lineno in lines) == list(range(1, len(LEADS) + 1))
    assert sorted(lines[0] for _, lines in verified) == list(range(1, len(LEADS) + 1, 2))
    assert {pid for pid, _ in verified} <= set(forked)


@JOBS
def test_with_chunks_the_verifier_runs_no_campaign_and_at_most_jobs_processes_run_campaigns(
    tmp_path, monkeypatch, forked, chunks, campaign_pids, jobs
):
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path, LEADS)
    slow_chunks(monkeypatch, 0.05)
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS[:4]))
    assert cli.main(retrieve_argv(dataset, buffer_path, tmp_path / "results.jsonl", jobs)) == 0
    verifier, *workers = forked  # the verifier starts first
    running = [int(pid) for pid in campaign_pids.read_text().split()]
    assert len(running) == 4
    assert verifier not in running
    assert set(running) <= set(workers) and len(workers) == int(jobs)
    assert verifier in {pid for pid, _ in verified_chunks(chunks)}


@JOBS
def test_a_worker_out_of_campaigns_verifies_chunks(tmp_path, monkeypatch, forked, chunks, campaign_pids, jobs):
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path, LEADS)
    slow_chunks(monkeypatch, 0.2)  # five chunks: a second in the verifier alone
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS[:1]))
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 0
    (worker,) = {int(pid) for pid in campaign_pids.read_text().split()}
    assert worker in {pid for pid, _ in verified_chunks(chunks)}
    assert len(forked) == 2  # one lead: the verifier and one worker, at any --jobs
    assert len(out.read_text().splitlines()) == 1


@JOBS
def test_a_run_waits_for_the_verdict_on_its_last_chunk_after_its_campaigns(
    tmp_path, monkeypatch, caplog, forked, chunks, jobs
):
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer_lines(buffer_path, with_bad_fingerprint(write_buffer(buffer_path), 6))
    slow_chunks(monkeypatch, 0.3)  # the campaigns are done long before the last chunk
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS[:1]))
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 2
    assert f"{buffer_path}:6: stored fingerprint does not match lead" in caplog.text
    assert not out.exists()
    assert _unreaped(forked) == []


@JOBS
def test_a_worker_killed_while_it_verifies_a_chunk_fails_the_run_as_a_dead_verifier(
    tmp_path, monkeypatch, caplog, forked, chunks, jobs
):
    ran = []  # a process's own copy once forked
    run_campaign = orc.run_campaign

    def noted(config, lead):
        ran.append(lead)
        return run_campaign(config, lead)

    verify = cli.verify_records

    def killed_after_a_campaign(records):
        time.sleep(0.2)  # the verifier alone would take a second
        if ran:
            os.kill(os.getpid(), signal.SIGKILL)
        return verify(records)

    monkeypatch.setattr(orc, "run_campaign", noted)
    monkeypatch.setattr(cli, "verify_records", killed_after_a_campaign)
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer(buffer_path, LEADS)
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS[:1]))
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 2
    assert f"the verifier of {buffer_path} exited with code -9" in caplog.text
    assert not out.exists()
    assert ran == []  # the run's own process ran no campaign
    assert len(forked) == 2 and _unreaped(forked) == []


@JOBS
def test_an_empty_buffer_needs_no_verifier_and_gives_the_bytes_of_in_line_verification(
    dataset, tmp_path, monkeypatch, forked, jobs
):
    buffer_path = tmp_path / "buffer.jsonl"
    buffer_path.write_text("")
    out = tmp_path / "results.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, out, jobs)) == 0
    assert len(forked) == (0 if jobs == "1" else int(jobs))  # the workers alone
    assert _unreaped(forked) == []

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    in_line = tmp_path / "in-line.jsonl"
    assert cli.main(retrieve_argv(dataset, buffer_path, in_line, "1")) == 0
    assert out.read_bytes() == in_line.read_bytes()


def test_endpoint_failure_names_whole_argv(tmp_path):
    script = tmp_path / "failing endpoint.py"
    script.write_text("import sys\nsys.exit(3)\n", encoding="utf-8")
    call = cli.text_endpoint([sys.executable, str(script), "--flag"])
    with pytest.raises(RuntimeError, match="exited 3") as caught:
        call({"smiles": "CCO"})
    assert str(script) in str(caught.value)
    assert "--flag" in str(caught.value)


# -- the endpoint transport ------------------------------------------------------------

# Logs "<kind> <sha256 of the request> <parent pid>" for each request it
# reads, then replies as a tool ("tool") or an evaluator ("evaluator") does.
LOGGING_ENDPOINT = """\
import hashlib, json, os, sys
kind, log = sys.argv[1:3]
payload = sys.stdin.buffer.read()
with open(log, "a", encoding="ascii") as handle:
    handle.write(f"{kind} {hashlib.sha256(payload).hexdigest()} {os.getppid()}\\n")
request = json.loads(payload)
if kind == "tool":
    print(f"<SMILES>{request['smiles']}C</SMILES> <SMILES>{request['smiles']}O</SMILES>")
else:
    print(json.dumps({"values": [float(len(s)) for s in request["smiles_list"]], "errors": []}))
"""


def logging_endpoint(tmp_path, kind):
    script = tmp_path / "logging_endpoint.py"
    script.write_text(LOGGING_ENDPOINT, encoding="utf-8")
    return [sys.executable, str(script), kind, str(tmp_path / "requests.log")]


def logged_requests(tmp_path):
    """(kind, request digest, parent pid) of each request the logging endpoints read."""
    log = tmp_path / "requests.log"
    return [tuple(line.split()) for line in log.read_text().splitlines()] if log.exists() else []


def external_args(tmp_path, tool_argv, evaluator_argv=None):
    """Config flags for one external tool "ext" and, if given, an external evaluator "ext"."""
    tools = tmp_path / "tools.json"
    tools.write_text(json.dumps({"tools": [{"tool_id": "ext", "kind": "external", "endpoint": tool_argv}]}))
    if evaluator_argv is None:
        return ["--tools-config", str(tools)]
    evaluators = tmp_path / "evaluators.json"
    evaluators.write_text(json.dumps({"evaluators": {"ext": {"direction": "maximize", "endpoint": evaluator_argv}}}))
    return ["--tools-config", str(tools), "--evaluators-config", str(evaluators)]


@pytest.fixture()
def spawned(tmp_path, monkeypatch):
    """A function listing (pid, spawner pid) of every endpoint process started so far, in any process."""
    path = tmp_path / "spawned.log"
    path.write_text("")
    spawn = os.posix_spawnp

    def recording_spawn(*args, **kwargs):
        pid = spawn(*args, **kwargs)
        with open(path, "a", encoding="ascii") as handle:
            handle.write(f"{pid} {os.getpid()}\n")
        return pid

    monkeypatch.setattr(os, "posix_spawnp", recording_spawn)  # forked workers inherit the patch
    return lambda: [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def _existing(pids) -> list[int]:
    """The pids among ``pids`` that still exist, zombies included."""
    existing = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        existing.append(pid)
    return existing


def one_shot_endpoint(argv):
    """The reference transport: one process started for each request, and no other."""

    def call(request):
        proc = subprocess.run(argv, input=json.dumps(request, sort_keys=True), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"endpoint exited {proc.returncode}")
        return proc.stdout

    return call


@JOBS
def test_endpoints_serve_the_requests_of_one_process_per_request(tmp_path, monkeypatch, forked, spawned, jobs):
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows("ext", LEADS[:3]))
    args = ["run", "--dataset", str(dataset), "--steps", "2", "--seed", "5"]
    args += external_args(tmp_path, logging_endpoint(tmp_path, "tool"), logging_endpoint(tmp_path, "evaluator"))
    with monkeypatch.context() as patched:
        patched.setattr(cli, "text_endpoint", one_shot_endpoint)
        patched.setattr(ep, "text_endpoint", one_shot_endpoint)  # json_endpoint looks it up there
        assert cli.main([*args, "--jobs", "1", "--out", str(tmp_path / "one-shot.jsonl")]) == 0
    expected = sorted(request[:2] for request in logged_requests(tmp_path))
    # A call here leaves a tool process waiting in this process, which a
    # forked worker must not take.
    assert "<SMILES>CC</SMILES>" in cli.text_endpoint(logging_endpoint(tmp_path, "tool"))({"smiles": "C"})
    (tmp_path / "requests.log").unlink()
    forked.clear()
    primed = len(spawned())
    assert cli.main([*args, "--jobs", jobs, "--out", str(tmp_path / "results.jsonl")]) == 0
    assert (tmp_path / "results.jsonl").read_bytes() == (tmp_path / "one-shot.jsonl").read_bytes()
    requests = logged_requests(tmp_path)
    assert sorted(request[:2] for request in requests) == expected  # one line per request made
    # Each request is served by a child of the process that made it.
    requesters = {os.getpid()} if jobs == "1" else set(forked)
    assert {int(request[2]) for request in requests} == requesters
    assert {spawner for _, spawner in spawned()[primed:]} == requesters
    assert _existing(pid for pid, _ in spawned()) == []
    assert _unreaped(forked) == []


@JOBS
@pytest.mark.parametrize("endpoint", ["replies", "exits-3", "missing"])
def test_no_endpoint_process_outlives_a_run(tmp_path, forked, spawned, jobs, endpoint):
    failing = tmp_path / "exit3.py"
    failing.write_text("import sys\nsys.exit(3)\n", encoding="utf-8")
    tool_argv = {
        "replies": logging_endpoint(tmp_path, "tool"),
        "exits-3": [sys.executable, str(failing)],
        "missing": [str(tmp_path / "missing-endpoint")],
    }[endpoint]
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS[:3]))
    out = tmp_path / "results.jsonl"
    argv = ["run", "--dataset", str(dataset), "--steps", "2", "--jobs", jobs, "--out", str(out)]
    assert cli.main([*argv, *external_args(tmp_path, tool_argv)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    proposed = [bool(attempt["candidates"]) for record in records for step in record["steps"] for attempt in step["attempts"]]
    assert len(records) == 3
    assert proposed == [endpoint == "replies"] * len(proposed) != []
    assert (spawned() == []) == (endpoint == "missing")
    assert _existing(pid for pid, _ in spawned()) == []
    assert _unreaped(forked) == []
    assert ep._started == set()


def test_an_endpoint_past_the_timeout_is_killed_and_reaped(tmp_path, monkeypatch, spawned):
    script = tmp_path / "sleeps.py"
    script.write_text("import sys, time\nsys.stdin.read()\ntime.sleep(60)\n", encoding="utf-8")
    monkeypatch.setattr(ep, "ENDPOINT_TIMEOUT_S", 0.5)
    call = cli.text_endpoint([sys.executable, str(script)])
    start = time.monotonic()
    with pytest.raises(subprocess.TimeoutExpired):
        call({"smiles": "CCO"})
    assert time.monotonic() - start < 10
    (in_flight, _), (waiting, _) = spawned()
    assert _unreaped([in_flight]) == []
    assert _existing([waiting]) == [waiting]  # started for the next request
    ep.reap_all()
    assert _unreaped([waiting]) == []


@pytest.mark.parametrize("excess", [0, 1])
def test_a_reply_past_the_limit_fails_its_call(tmp_path, spawned, excess):
    script = tmp_path / "replies.py"
    size = ep.ENDPOINT_REPLY_LIMIT + excess
    script.write_text(f"import sys\nsys.stdin.read()\nsys.stdout.write('C' * {size})\n", encoding="utf-8")
    call = cli.text_endpoint([sys.executable, str(script)])
    if excess:
        with pytest.raises(RuntimeError, match=f"replied more than {ep.ENDPOINT_REPLY_LIMIT} bytes"):
            call({"smiles": "CCO"})
    else:
        assert call({"smiles": "CCO"}) == "C" * size
    ep.reap_all()
    assert _unreaped(pid for pid, _ in spawned()) == []


def test_an_endless_reply_fails_its_call_within_seconds(tmp_path, monkeypatch, spawned):
    # The reply never ends, but stops growing at 16 MiB: a transport without
    # the limit fails this test by its (shortened) timeout, not by memory.
    script = tmp_path / "endless.py"
    script.write_text(
        "import sys, time\nsys.stdin.read()\nfor _ in range(256):\n    sys.stdout.write('C' * 65536)\n"
        "sys.stdout.flush()\ntime.sleep(60)\n"
    )
    monkeypatch.setattr(ep, "ENDPOINT_TIMEOUT_S", 10.0)
    call = cli.text_endpoint([sys.executable, str(script)])
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="replied more than"):
        call({"smiles": "CCO"})
    assert time.monotonic() - start < 10
    (in_flight, _), (waiting, _) = spawned()
    assert _unreaped([in_flight]) == []
    ep.reap_all()
    assert _unreaped([waiting]) == []


def test_a_failed_endpoint_names_the_tail_of_its_stderr(tmp_path):
    script = tmp_path / "noisy.py"
    script.write_text("import sys\nsys.stderr.write('x' * 100000 + ' the end')\nsys.exit(3)\n")
    with pytest.raises(RuntimeError, match="exited 3") as caught:
        cli.text_endpoint([sys.executable, str(script)])({"smiles": "CCO"})
    assert str(caught.value).endswith("x the end")
    assert len(str(caught.value)) < 2 * ep._STDERR_TAIL
    ep.reap_all()


@JOBS
def test_terminated_jobs_workers_kill_their_endpoint_processes(tmp_path, monkeypatch, forked, spawned, jobs):
    parent = os.getpid()

    def after_the_endpoints_start(records):
        """The verdict, once each process running campaigns has an endpoint process waiting."""
        deadline = time.monotonic() + 30
        while os.getpid() != parent and len(spawned()) < 2 * int(jobs) and time.monotonic() < deadline:
            time.sleep(0.01)
        return verify_records(records)

    monkeypatch.setattr(cli, "verify_records", after_the_endpoints_start)
    buffer_path = tmp_path / "buffer.jsonl"
    write_buffer_lines(buffer_path, with_bad_fingerprint(write_buffer(buffer_path), 1))
    dataset = tmp_path / "leads.jsonl"
    write_dataset(dataset, dataset_rows(leads=LEADS * 2))
    out = tmp_path / "results.jsonl"
    argv = retrieve_argv(dataset, buffer_path, out, jobs) + external_args(tmp_path, logging_endpoint(tmp_path, "tool"))
    assert cli.main(argv) == 2
    assert len(spawned()) >= 2 * int(jobs)
    assert len(logged_requests(tmp_path)) < len(LEADS) * 2
    assert not out.exists()
    assert _existing(pid for pid, _ in spawned()) == []
    assert _unreaped(forked) == []


@needs_proc
def test_a_direct_call_leaves_nothing_running_at_interpreter_exit(tmp_path):
    script = tmp_path / "endpoint.py"
    # A waiting process given end of file instead of a request would stay a minute.
    script.write_text(
        "import sys, time\nif not sys.stdin.read():\n    time.sleep(60)\nprint('<SMILES>CC</SMILES>')\n",
        encoding="utf-8",
    )
    code = f"from leadopt import cli\nprint(cli.text_endpoint([{sys.executable!r}, {str(script)!r}])({{}}))\n"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, start_new_session=True, stdout=subprocess.PIPE)
    try:
        output, _ = proc.communicate(timeout=30)
        _await_group(proc.pid, lambda group: not group, "every process gone")
    finally:
        _kill_group(proc)
    assert (proc.returncode, output) == (0, b"<SMILES>CC</SMILES>\n\n")


def test_a_forked_child_leaves_its_parents_endpoint_processes_alone(tmp_path, spawned):
    call = cli.text_endpoint(logging_endpoint(tmp_path, "tool"))
    assert "<SMILES>CC</SMILES>" in call({"smiles": "C"})
    [waiting] = ep._waiting.values()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if ep._started == set() and ep._waiting == {} and waiting.open_fds == set():
                ep.reap_all()
                code = 0
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert _existing([waiting.pid]) == [waiting.pid]
    primed = len(spawned())
    assert "<SMILES>CC</SMILES>" in call({"smiles": "C"})
    assert waiting.exitcode == 0  # it served this call
    assert len(spawned()) == primed + 1  # the next waiting process
    assert [int(request[2]) for request in logged_requests(tmp_path)] == [os.getpid()] * 2
    ep.reap_all()
    assert _unreaped(pid for pid, _ in spawned()) == []


def test_a_builtin_run_needs_no_posix_only_name(dataset, tmp_path):
    code = (
        "import os, signal, sys\n"
        "for module, name in [(os, 'register_at_fork'), (os, 'fork'), (os, 'posix_spawnp'), (signal, 'pthread_sigmask')]:\n"
        "    delattr(module, name)\n"
        "from leadopt import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    args = ["run", "--dataset", dataset, "--steps", "1", "--jobs", "1", "--out"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args, str(tmp_path / "bare.jsonl")], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert cli.main([*args, str(tmp_path / "results.jsonl")]) == 0
    assert (tmp_path / "bare.jsonl").read_bytes() == (tmp_path / "results.jsonl").read_bytes()


# -- external endpoints through configs ----------------------------------------------


@pytest.mark.parametrize("jobs", ["1", "2"], ids=lambda jobs: f"jobs{jobs}")
def test_external_tool_and_evaluator_endpoints(tmp_path, jobs):
    # Two leads, so that at --jobs 2 each endpoint process starts from a forked worker.
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
    leads = ["CCCCCCCCCCCCCCCC", "CCCCCCCCCCCC"]
    write_dataset(dataset, [{"smiles": lead, "property": "chainlen"} for lead in leads])
    out = tmp_path / "results.jsonl"
    code = cli.main(
        [
            "run", "--mode", "online", "--dataset", str(dataset),
            "--tools-config", str(tools_config),
            "--evaluators-config", str(evaluators_config),
            "--steps", "2", "--jobs", jobs, "--out", str(out),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [record["lead"] for record in records] == leads
    for record in records:
        assert record["best_seen"] is not None
        assert record["invocation_count"] >= 2
        all_tools = {
            attempt["tool_id"]
            for step in record["steps"]
            for attempt in step["attempts"]
        }
        assert all_tools == {"chain-extender"}


def test_report_on_a_run_whose_tools_proposed_nothing_prints_no_vr(tmp_path, capsys):
    tools_config = tmp_path / "tools.json"
    tools_config.write_text(
        json.dumps({"tools": [{"tool_id": "down", "kind": "external", "endpoint": ["false"]}]}),
        encoding="utf-8",
    )
    dataset = tmp_path / "data.jsonl"
    write_dataset(dataset, [{"smiles": "CCO", "property": "plogp"}])
    out = tmp_path / "results.jsonl"
    argv = ["run", "--dataset", str(dataset), "--tools-config", str(tools_config), "--steps", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["report", "--results", str(out)]) == 0
    header, row, footer = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "VR" and row.split()[-1] == "--"
    assert "generated=0" in footer


def test_external_tool_span_outside_the_smiles_alphabet_is_an_invalid_candidate(tmp_path):
    tool_script = tmp_path / "tool.py"
    tool_script.write_text("print('<SMILES>C\u00b2CC</SMILES> <SMILES>CCN</SMILES>')\n", encoding="utf-8")
    tools_config = tmp_path / "tools.json"
    tools_config.write_text(
        json.dumps({"tools": [{"tool_id": "ext", "kind": "external", "endpoint": [sys.executable, str(tool_script)]}]}),
        encoding="utf-8",
    )
    dataset = tmp_path / "data.jsonl"
    write_dataset(dataset, [{"smiles": "CCO", "property": "plogp"}])
    out = tmp_path / "results.jsonl"
    argv = ["run", "--dataset", str(dataset), "--tools-config", str(tools_config), "--steps", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    record = json.loads(out.read_text())
    assert "error" not in record
    invalid, checked = record["steps"][0]["attempts"][0]["candidates"]
    assert (invalid["smiles"], invalid["valid"], invalid["failure_kind"]) == ("C²CC", False, "invalid_structure")
    assert (checked["smiles"], checked["valid"], checked["canonical"]) == ("CCN", True, "CCN")


# -- golden bytes ----------------------------------------------------------------------

GOLDEN_SHA256 = {
    "buffer": "ae199604c04fa800cef792aef4aad5553b99d7189d64f9cdcf52f564de6ade25",
    "online": "d477b7425c1d3280dd63f718aac038e135dc7b45517266cd004e29578e06caf1",
    "parallel": "51eac746cc9fb1da06e2bc3189cb9c55d04f99dc46986efb36f1ac3540b03658",
    "retrieve": "83f7fcc2071fb26297f4678d6e36d8034c9fcfd3fc4bf46cc73e4b9739751891",
}


@pytest.mark.parametrize("jobs", ["1", "2"], ids=lambda jobs: f"jobs{jobs}")
def test_golden_bytes(tmp_path, jobs):
    """The first 12 rows of the acceptance criterion-10 dataset give pinned bytes.

    A change of any hash is a change of the result or buffer bytes that the
    same dataset, config and seed must reproduce, at any --jobs.
    """
    cycle = ("plogp", "qed", "bbbp", "hia", "mutagenicity")
    dataset = tmp_path / "leads.jsonl"
    write_dataset(
        dataset,
        [
            {"smiles": canonical_form(lead), "property": cycle[index % len(cycle)]}
            for index, lead in enumerate(lead_pool(2026, 100)[:12])
        ],
    )
    buffer = tmp_path / "buffer.jsonl"
    common = ["--dataset", str(dataset), "--seed", "42", "--jobs", jobs]
    assert cli.main(["build-buffer", *common, "--out", str(buffer)]) == 0
    for mode in ("online", "parallel", "retrieve"):
        out = tmp_path / f"{mode}.jsonl"
        assert cli.main(["run", "--mode", mode, *common, "--buffer", str(buffer), "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
