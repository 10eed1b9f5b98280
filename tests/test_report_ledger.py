import json

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
