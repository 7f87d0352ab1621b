# Import path pinned by the frozen ledger; ledger v2 (ROADMAP 1(c)) deletes it.
from repro.dispatch import Dispatcher
from repro.effects import run_direct

Router = Dispatcher


class DirectRunner:
    def __init__(self, router):
        self.router = router

    def run(self, generator):
        return run_direct(generator, self.router)


__all__ = ["DirectRunner", "Router"]
