# Import path pinned by the frozen ledger; ledger v2 (ROADMAP 1(c)) deletes it.
from repro.runtime.metrics import TxnMetrics

__all__ = ["TxnMetrics"]
