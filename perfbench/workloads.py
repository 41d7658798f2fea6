"""The benchmark's workloads, built on the public load-scenario hooks.

Each workload is one of ``repro.workloads.load``'s figure scenarios
(``setup`` / ``principal`` / ``op`` / ``check``) with a fixed principal
count, runtime and client count.  Only the number of operations depends
on how long a run measures.

``clearing-durable`` is runnable but not one of the benchmarked workloads
in ``BENCHMARK.json``: its crash-restart check finds a recovery defect in
the program (see ``README.md``), so its runs fail until that is fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict

from repro.durability import DurabilityStore
from repro.workloads.load import Fig4Scenario, Fig5Scenario

#: The two banks of the clearing workload: (state key, server name).
BANKS = (("bank_a", "bank-a"), ("bank_b", "bank-b"))


class DurableClearing(Fig5Scenario):
    """Fig. 5 clearing with both banks on a WAL + snapshot store.

    Stores use the defaults: a snapshot every 512 records and no fsync,
    which is the simulated crash model (process state lost, files kept).
    """

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir

    def store_dir(self, name: str) -> str:
        return os.path.join(self.data_dir, name)

    def setup(self, realm, config) -> dict:
        return {
            key: realm.accounting_server(
                name,
                durability=DurabilityStore(self.store_dir(name), server=name),
            )
            for key, name in BANKS
        }


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: which scenario, how many principals, and
    which runtime with how many client threads."""

    name: str
    #: Builds the scenario, given a directory for its files.
    make: Callable[[str], object]
    principals: int
    runtime: str
    clients: int
    #: Banks on a durability store, rebuilt from it after the timed phase.
    durable: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("clearing", lambda _dir: Fig5Scenario(), 60, "sync", 1),
        Workload("clearing-durable", DurableClearing, 60, "sync", 1, True),
        Workload("cascade-aio", lambda _dir: Fig4Scenario(), 40, "aio", 2),
    )
}
