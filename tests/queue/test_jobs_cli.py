"""The ``repro jobs`` admin CLI: list, show, retry, purge."""

import json

import pytest

from repro.cli import main
from repro.queue import JobQueue


@pytest.fixture()
def queue_path(tmp_path):
    """A queue seeded with one job per interesting state."""
    path = tmp_path / "queue.sqlite3"
    with JobQueue(path) as queue:
        # Terminal rows are seeded first: claim() always takes the
        # oldest queued job, so each claim below gets the row just
        # enqueued only while nothing older is still queued.
        for job_id, task, state in (
            ("bbb222", "check", "done"),
            ("ccc333", "simulate", "error"),
            ("aaa111", "check", "queued"),
        ):
            queue.enqueue(
                job_id=job_id,
                task=task,
                name=f"{task}-{job_id}",
                kind="synth",
                spec={"kind": "synth", "order": 6},
                key=f"key-{job_id}",
            )
            if state != "queued":
                queue.claim("w1")
                queue.ack(
                    job_id,
                    "w1",
                    state=state,
                    result={"status": "ok"} if state == "done" else None,
                    error="boom" if state == "error" else None,
                )
    return path


def _jobs(queue_path, command, *argv):
    # The queue flags live on each subcommand, after its positionals.
    return main(["jobs", command, *argv, "--queue", str(queue_path)])


class TestList:
    def test_table_lists_every_job(self, queue_path, capsys):
        assert _jobs(queue_path, "list") == 0
        out = capsys.readouterr().out
        for job_id in ("aaa111", "bbb222", "ccc333"):
            assert job_id in out
        assert "state" in out  # header row

    def test_state_and_task_filters(self, queue_path, capsys):
        assert _jobs(queue_path, "list", "--state", "error") == 0
        out = capsys.readouterr().out
        assert "ccc333" in out and "bbb222" not in out
        assert _jobs(queue_path, "list", "--task", "simulate") == 0
        out = capsys.readouterr().out
        assert "ccc333" in out and "aaa111" not in out

    def test_json_output_is_parseable(self, queue_path, capsys):
        assert _jobs(queue_path, "list", "--json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["id"] for row in rows} == {"aaa111", "bbb222", "ccc333"}
        assert all("status" in row for row in rows)

    def test_empty_match_says_so(self, queue_path, capsys):
        assert _jobs(queue_path, "list", "--state", "failed") == 0
        assert "no jobs match" in capsys.readouterr().out


class TestShow:
    def test_show_prints_the_fields(self, queue_path, capsys):
        assert _jobs(queue_path, "show", "ccc333") == 0
        out = capsys.readouterr().out
        assert "ccc333" in out and "error" in out and "boom" in out

    def test_show_json_includes_the_spec(self, queue_path, capsys):
        assert _jobs(queue_path, "show", "bbb222", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "done"
        assert payload["spec"] == {"kind": "synth", "order": 6}

    def test_unknown_id_is_a_clean_error(self, queue_path, capsys):
        assert _jobs(queue_path, "show", "nope") == 1
        assert "unknown job id" in capsys.readouterr().err


class TestRetry:
    def test_retry_requeues_a_finished_job(self, queue_path, capsys):
        assert _jobs(queue_path, "retry", "ccc333") == 0
        assert "requeued" in capsys.readouterr().out
        with JobQueue(queue_path) as queue:
            row = queue.get("ccc333")
            assert row.state == "queued" and row.error is None

    def test_retry_refuses_live_jobs(self, queue_path, capsys):
        assert _jobs(queue_path, "retry", "aaa111") == 1
        err = capsys.readouterr().err
        assert "queued" in err and "only finished jobs" in err

    def test_retry_json(self, queue_path, capsys):
        assert _jobs(queue_path, "retry", "bbb222", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"id": "bbb222", "status": "queued"}


class TestPurge:
    def test_purge_removes_one_terminal_state(self, queue_path, capsys):
        assert _jobs(queue_path, "purge", "--state", "error") == 0
        assert "purged 1 error job(s)" in capsys.readouterr().out
        with JobQueue(queue_path) as queue:
            assert queue.get("ccc333") is None
            assert queue.get("bbb222") is not None

    def test_purge_json_reports_the_count(self, queue_path, capsys):
        assert _jobs(queue_path, "purge", "--state", "failed", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"state": "failed", "removed": 0}


class TestErrors:
    def test_missing_database_is_a_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere" / "queue.sqlite3"
        assert main(["jobs", "list", "--queue", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "no queue database" in err and str(missing) in err

    def test_reads_resolve_only_the_queue_path(self, queue_path, capsys, monkeypatch):
        # The lease is a serve/worker knob: a malformed one must not fail
        # a read of the queue, and serve still rejects it.
        monkeypatch.setenv("REPRO_QUEUE_LEASE", "bogus")
        monkeypatch.setenv("REPRO_QUEUE_PATH", str(queue_path))
        assert main(["jobs", "list", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 3
        assert main(["trace", "bbb222", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "done"
        assert main(["serve", "--print-config", "--port", "0"]) == 1
        assert "REPRO_QUEUE_LEASE" in capsys.readouterr().err
