"""The accounting ratchet: ``repro.serving`` keeps no books beside its event log.

The check itself is lint rule R7 (``repro.lint.rules.accounting``); this
file holds the serving package to it.  The one timed span kept on purpose
is the flush span of ``EncryptedComputeServer._run``, whose two
``perf_counter`` lines carry inline R7 markers.
"""

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.rules.accounting import AccountingRule

SERVING = Path(__file__).resolve().parents[2] / "src" / "repro" / "serving"


def test_serving_keeps_no_books_beside_its_log():
    result = lint_paths([str(SERVING)], rules=[AccountingRule()])
    assert not result.findings, "emit an event instead:\n" + "\n".join(
        f"  {f}" for f in result.findings
    )
    spans = {(Path(f.path).name, f.symbol) for f in result.suppressed}
    assert spans == {("server.py", "EncryptedComputeServer._run")}
    assert len(result.suppressed) == 2
