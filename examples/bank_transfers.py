"""Bank transfers: snapshot isolation, conflicts, retries, and recovery.

A classic money-transfer workload run through the record-level API with
adversarial interleavings: many transfer transactions race on a small
set of accounts, conflicting transactions retry, and at the end the
total balance is checked -- LL/SC conflict detection guarantees no lost
updates.  Finally a processing node "crashes" mid-commit and the
recovery procedure rolls its half-applied transfer back.

Run with:  python examples/bank_transfers.py
"""

import random

import repro
from repro import effects
from repro.core.recovery import recover_processing_node
from repro.core.spaces import data_key
from repro.core.txlog import TransactionLog
from repro.effects import run_direct
from repro.errors import TransactionAborted

N_ACCOUNTS = 10
INITIAL_BALANCE = 1_000
N_TRANSFERS = 60


def transfer_logic(source_key, target_key, amount):
    """A transfer as a protocol coroutine (the record-level API)."""

    def logic(txn):
        rows = yield from txn.read_many([source_key, target_key])
        source_balance = rows[source_key][0]
        target_balance = rows[target_key][0]
        if source_balance < amount:
            return "insufficient"
        yield from txn.update(source_key, (source_balance - amount,))
        yield from txn.update(target_key, (target_balance + amount,))
        return "ok"

    return logic


def main() -> None:
    with repro.connect(storage_nodes=3, replication_factor=2) as db:
        _run(db)


def _run(db) -> None:
    table_id = 1
    keys = [data_key(table_id, i) for i in range(N_ACCOUNTS)]

    # Open accounts.
    setup = db.session()
    with setup.transaction() as txn:
        for key in keys:
            txn.insert(key, (INITIAL_BALANCE,))
    print(f"opened {N_ACCOUNTS} accounts with {INITIAL_BALANCE} each")

    # Two processing nodes hammer the accounts with transfers.
    sessions = [db.session(), db.session()]
    rng = random.Random(42)
    committed = conflicts = 0
    for i in range(N_TRANSFERS):
        session = sessions[i % 2]
        dispatcher = session.dispatcher
        source, target = rng.sample(range(N_ACCOUNTS), 2)
        amount = rng.randint(1, 200)
        logic = transfer_logic(keys[source], keys[target], amount)
        while True:
            try:
                run_direct(session.pn.run_transaction(logic), dispatcher)
                committed += 1
                break
            except TransactionAborted:
                conflicts += 1  # retry with a fresh snapshot

    print(f"transfers committed: {committed}, conflicts retried: {conflicts}")

    # Invariant: money is conserved.
    check = db.session()
    dispatcher = check.dispatcher
    with check.transaction() as txn:
        balances = run_direct(txn.read_many(keys), dispatcher)
        total = sum(balance[0] for balance in balances.values())
    print(f"total balance: {total} (expected {N_ACCOUNTS * INITIAL_BALANCE})")
    assert total == N_ACCOUNTS * INITIAL_BALANCE

    # --- crash a PN mid-commit and recover --------------------------------------
    print("\ncrashing a processing node mid-commit ...")
    victim = db.session()
    dispatcher = victim.dispatcher
    txn = run_direct(victim.pn.begin(), dispatcher)
    run_direct(txn.update(keys[0], (0,)), dispatcher)  # steal everything from account 0
    commit = txn.commit()
    # Drive the commit just past the data-apply step, then "crash".
    result = None
    while True:
        request = commit.send(result)
        result = dispatcher.execute(request)
        if isinstance(request, effects.Batch):
            break
    print(f"  transaction {txn.tid} applied its update, then the PN died")

    rolled_back = run_direct(
        recover_processing_node(
            victim.pn.pn_id, db.commit_managers, TransactionLog()
        ),
        check.dispatcher,
    )
    print(f"  recovery rolled back tids: {rolled_back}")

    check2 = db.session()
    dispatcher2 = check2.dispatcher
    with check2.transaction() as txn:
        balances = run_direct(txn.read_many(keys), dispatcher2)
        total = sum(balance[0] for balance in balances.values())
    print(f"  total balance after recovery: {total}")
    assert total == N_ACCOUNTS * INITIAL_BALANCE


if __name__ == "__main__":
    main()
