import hashlib
import json
import subprocess
import sys

import report_ledger


def test_reports_match_the_ledger():
    """Every ledger report regenerates to its recorded SHA-256. A change that
    moves a report on purpose rewrites the ledger (see report_ledger.py)."""
    ledger = json.loads(report_ledger.LEDGER.read_text(encoding="utf-8"))
    stack = report_ledger.fingerprint()
    assert stack == ledger["fingerprint"], (
        f"the ledger was taken on {ledger['fingerprint']}, this stack is {stack}"
    )
    hashes = report_ledger.report_hashes()
    assert sorted(hashes) == sorted(ledger["reports"])
    moved = [name for name in sorted(hashes) if hashes[name] != ledger["reports"][name]]
    assert not moved, f"reports whose hash moved: {moved}"


def test_search_report_without_scipy(tmp_path):
    """The search's independent recheck needs no scipy: with scipy unimportable,
    `qd` writes the ledger's theorem-check-search-300 report byte for byte."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps({"parameters": {"mode": "search", "trials": 300}}))
    argv = ["theorem-check", "--config", str(cfg), "--seed", "7", "--out", str(out)]
    code = f"import sys; sys.modules['scipy'] = None; from qdlab import cli; cli.main({argv!r})"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    ledger = json.loads(report_ledger.LEDGER.read_text(encoding="utf-8"))
    expected = ledger["reports"]["theorem-check-search-300-seed7.csv"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_moved_reports_lists_each_moved_added_and_removed_report():
    old = {"a.csv": "1" * 64, "b.csv": "2" * 64, "c.csv": "3" * 64}
    new = {"a.csv": "1" * 64, "b.csv": "4" * 64, "d.csv": "5" * 64}
    assert report_ledger.moved_reports(old, new) == [
        f"b.csv {'2' * 12} -> {'4' * 12}", f"c.csv {'3' * 12} -> -", f"d.csv - -> {'5' * 12}"]
    assert report_ledger.moved_reports(old, old) == []
