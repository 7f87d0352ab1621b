# Import path pinned by the frozen ledger; ledger v2 (ROADMAP 1(c)) deletes it.
from repro.workloads.simulated import TellConfig

__all__ = ["TellConfig"]
