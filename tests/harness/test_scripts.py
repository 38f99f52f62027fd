"""Smoke tests for the repository scripts."""

import runpy
import sys

import pytest


def run_script(path, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [path] + argv)
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def test_make_report_subset(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.txt"
    code = run_script("scripts/make_report.py",
                      ["--only", "model", "--out", str(out)], monkeypatch)
    assert code == 0
    text = out.read_text()
    assert "analytical model" in text
    assert "█" in text or "B_flush" in text


def test_make_report_rejects_unknown(tmp_path, monkeypatch, capsys):
    code = run_script("scripts/make_report.py",
                      ["--only", "fig99", "--out",
                       str(tmp_path / "r.txt")], monkeypatch)
    assert code == 2


def test_profile_hotpath_runs(monkeypatch, capsys):
    code = run_script("scripts/profile_hotpath.py",
                      ["--writes", "4", "--top", "3"], monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "bandwidth" in out
    assert "cumtime" in out


def test_lock_table_scaling_probe_and_gate():
    from repro.harness.wallclock import (
        MAX_SCALING_RATIO,
        check_scaling,
        lock_table_scaling,
    )

    out = lock_table_scaling(writes=(2, 4), repeats=1)
    assert set(out["us_per_write"]) == {"2", "4"}
    assert all(v > 0 for v in out["us_per_write"].values())
    assert out["ratio"] == round(out["us_per_write"]["4"]
                                 / out["us_per_write"]["2"], 3)
    assert out["max_ratio"] == MAX_SCALING_RATIO == 1.6
    ok = {"us_per_write": {"32": 200.0, "256": 240.0}, "ratio": 1.2,
          "max_ratio": 1.6}
    assert check_scaling(ok) is None
    bad = dict(ok, us_per_write={"32": 300.0, "256": 1500.0}, ratio=5.0)
    message = check_scaling(bad)
    assert "5.0x from 32 to 256" in message
    with pytest.raises(ValueError):
        lock_table_scaling(writes=(8,))
