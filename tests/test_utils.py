"""Tests for repro.utils: tables, RunLog."""

import pytest

from repro.utils import render_table, RunLog


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        out = render_table(["kernel", "time"], [["euler_step", 10.18]])
        assert "kernel" in out
        assert "euler_step" in out
        assert "10.18" in out

    def test_title_line(self):
        out = render_table(["a"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_alignment_consistent_width(self):
        out = render_table(["x", "yyyy"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len({len(ln) for ln in lines}) <= 2  # header+rows aligned


class TestRunLog:
    def test_record_and_query(self):
        log = RunLog("t")
        log.record("sypd", 21.5, ne=30)
        log.record("sypd", 3.4, ne=120)
        assert log.values("sypd") == [21.5, 3.4]
        assert log.last("sypd") == 3.4
        assert log.last("missing", default=0) == 0
        assert len(log) == 2

    def test_summary_mentions_events(self):
        log = RunLog("t")
        log.record("pflops", 3.3)
        assert "pflops" in log.summary()

    def test_simulated_time_and_seq(self):
        log = RunLog("t")
        log.record("a", 1)
        log.record("b", 2, t=4.5)
        events = list(log)
        assert [e.seq for e in events] == [0, 1]
        assert events[0].t == 0.0 and events[1].t == 4.5

    def test_jsonl_export_canonical(self):
        import json
        import numpy as np

        log = RunLog("exp")
        log.record("sypd", np.float64(21.5), t=1.0, ne=30)
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row == {"key": "sypd", "log": "exp", "meta": {"ne": 30},
                       "seq": 0, "t": 1.0, "value": 21.5}
        # Canonical form: identical logs export identical bytes.
        log2 = RunLog("exp")
        log2.record("sypd", 21.5, t=1.0, ne=30)
        assert log.to_jsonl() == log2.to_jsonl()

    def test_write_jsonl(self, tmp_path):
        log = RunLog("exp")
        log.record("x", 1)
        p = tmp_path / "log.jsonl"
        log.write_jsonl(str(p))
        assert p.read_text() == log.to_jsonl()
