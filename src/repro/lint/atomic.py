"""The RA rule family: yield-point interleaving and typestate rules.

Every effect ``yield`` in protocol code is a preemption point -- the
kernel may run any other PN/CM/SN coroutine before the result comes
back.  The RA rules statically prove the windows around those points
safe: RA001-RA003 check shared-state atomicity across yields, RA004 and
RA005 check the transaction/validator lifecycle as finite-state
contracts over the call graph.  They read the
:class:`~repro.lint.flow.atomic.AtomicAnalysis` the engine attaches to
the flow analysis.

Unlike the RF rules, RA rules re-walk the AST of the module under check
(path-sensitive staleness and typestate need statement order and branch
structure the flow summaries do not keep).
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, List, Tuple

from repro.lint.flow.atomic import AtomicAnalysis
from repro.lint.flow.rules import _Loc
from repro.lint.index import ModuleSummary, ProjectIndex
from repro.lint.rules import Rule


class AtomicRule(Rule):
    """Base: fetch the atomic analysis off the flow analysis, run the
    module walker once (cached), and yield this rule's findings."""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[Any, str]]:
        analysis: AtomicAnalysis = index.flow.atomic
        for line, code, message in analysis.module_findings(module, tree):
            if code == self.code:
                yield _Loc(line), message


class RA001StaleReadGuardsWrite(AtomicRule):
    code = "RA001"
    title = "stale pre-yield read guards an unconditional shared write"
    explain = """\
A check-then-act race across a preemption point: a value is read from
shared state, an effect yield suspends the coroutine (any other PN/CM/SN
coroutine may run), and the stale value then decides an *unconditional*
write -- a `yield effects.Put/Delete(...)` or a direct assignment to a
shared object's attribute.  The pre-PR-8 FOR-UPDATE-missing-key bug had
exactly this shape.

RA001 tracks the provenance of every local through yield segments: a
local bound before the last yield is stale, and an `if`/`while` test
using a stale local arms a guard over the block it dominates (including
the fall-through of an early-exit guard).  Any unconditional shared
write under an armed guard is reported with the guard line, the read
origin, and the preemption point between them.

Fix by re-reading the value after the yield, or -- the protocol's
idiomatic answer -- by making the write conditional on the version
observed (`yield effects.PutIfVersion(...)` /
`DeleteIfVersion(...)`), which turns the check-then-act into LL/SC.
Conditional writes are never reported.
"""


class RA002CollectionTornAcrossYield(AtomicRule):
    code = "RA002"
    title = "shared collection mutated on both sides of a yield"
    explain = """\
Structurally mutating a shared dict/list (subscript store or delete) in
one yield segment and again in a later segment assumes nothing touched
the collection while the coroutine was suspended -- but every yield is a
preemption point, and another coroutine may have inserted, removed, or
replaced entries between the two mutations.

RA002 reports a pair of structural mutations of the same shared
footprint in different segments when the later segment contains no
re-read of that footprint before the mutation.  A read after the yield
(a membership test, a `.get(...)`, iterating the collection, or a
`yield from` into a helper that reads it) counts as the recheck and
silences the rule; so does funneling both mutations into the same
segment.

Fix by re-reading (or generation-checking) the collection after the
yield before mutating it again, or by restructuring so all mutations
happen on one side of the preemption point.
"""


class RA003InvariantPairTorn(AtomicRule):
    code = "RA003"
    title = "invariant pair updated on only one side of a yield"
    explain = """\
Some shared attributes only make sense together: CommitManager's
`_active_base`/`_active_pn` map pair, its `completed` watermark and
`_next_stripe` counter, SharedBufferVersionSync's `_entries` and
`_unit_members`.  Declared in
`repro.lint.flow.atomic.INVARIANT_PAIRS`, each pair must be updated
atomically -- in the same yield segment -- or an interleaved coroutine
can observe the invariant half-established.

RA003 fires on a function that writes both members of a pair but has a
yield segment updating only one of them.  All shipped writers are
synchronous methods (segment 0 throughout), which is the point: keeping
pair updates out of coroutines is the invariant this rule freezes.

Fix by moving both writes to the same side of the yield (usually by
hoisting the pair update into a synchronous helper called after the
last yield).
"""


class RA004TxnUseAfterFinish(AtomicRule):
    code = "RA004"
    title = "transaction used after commit/abort, or finished twice"
    explain = """\
`Transaction.commit()`/`.abort()` release the snapshot and write set;
the object is dead afterwards.  A read or write through a finished
transaction silently operates on released state (stale snapshot bounds,
cleared buffers), and a second finish double-releases the snapshot --
both previously only detectable by the runtime schedule explorer, and
only on schedules it happened to run.

RA004 tracks a finite-state contract (RUNNING -> FINISHED) per
transaction-typed receiver: locals bound from `pn.begin()`, annotated
parameters, `self` inside Transaction methods, and attribute chains
like `self._txn`.  Direct `.commit()`/`.abort()`/`._finish_abort()`
calls finish the receiver on that path; `read`/`read_many`/
`read_for_update`/`insert`/`update`/`delete` afterwards are reported,
as is a second finish.  Passing the transaction to a callee whose
summary (a call-graph fixpoint) finishes it downgrades the state to
MAYBE-finished -- enough to stop false "still running" assumptions but
deliberately not reported, since a flow-insensitive summary cannot
prove the finishing path was taken.  Rebinding the name resets the
contract; branch joins keep a state only when both arms agree.

Fix by restructuring so every use dominates the finish (or starts a
fresh transaction).
"""


class RA005AbortNotReported(AtomicRule):
    code = "RA005"
    title = "abort path skips ReportAborted or validator on_aborted"
    explain = """\
Aborting has two halves and both are protocol obligations.  (a) Setting
`txn.state = TxnState.ABORTED` without a following
`yield effects.ReportAborted(tid)` (or a `yield from` into a helper
that reaches one) leaves the transaction in the commit manager's active
window forever, pinning the GC horizon.  (b) A class that registers
commit intents with a validator (`.validate_and_register(...)`) must
also wire the abort path (`.on_aborted(...)` on the same receiver
somewhere in the class), or every LL/SC-failure abort leaks an
in-flight entry in the validator and SSI's dangerous-structure check
degrades into false positives against ghosts.

RA005(a) is path-local: the discharge must appear at or after the state
write in the same function (delegation counts via a ReportAborted
reachability fixpoint over `yield from` edges).  RA005(b) is class
-local over the extracted call facts, in `repro.*` modules only (a test
that drives a validator directly owns no abort path).

Fix by delivering `ReportAborted` on every abort path (the shipped
idiom is `Transaction._finish_abort`) and by calling
`validator.on_aborted(tid)` wherever registrations can be abandoned.
"""


ATOMIC_RULES: List[Rule] = [
    RA001StaleReadGuardsWrite(),
    RA002CollectionTornAcrossYield(),
    RA003InvariantPairTorn(),
    RA004TxnUseAfterFinish(),
    RA005AbortNotReported(),
]
