"""``transfer`` is an exact stand-in for the wire on every ORB hop.

The ORB carries a :func:`repro.orb.marshal.transfer` copy of each Request
and Reply instead of encoded bytes.  That is only sound while the copy is
what the receiver would have decoded, and the size is what would have
crossed the wire.  These tests wrap ``transfer`` with a checker, run a
spread of real workloads, and for every message sent assert:

- the copy encodes to exactly the original's bytes;
- the reported size is the original's encoded length;
- no list, dict or struct object is shared between copy and original (the
  address-space isolation that ``decode`` gave for free).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator, List

import pytest

from repro.bench.harness import peer_point
from repro.orb import marshal
from repro.orb.marshal import _STRUCT_REGISTRY, encode
from repro.scenario import run_scenario
from tests.test_invariant_sweep import gmi_spec, recovery_spec, sharded_spec


def _reachable(value: Any) -> Iterator[Any]:
    """Every list, dict and struct object reachable from ``value``."""
    wire_name = getattr(type(value), "_wire_name", None)
    if wire_name is not None:
        yield value
        children = [getattr(value, f) for f in _STRUCT_REGISTRY[wire_name][1]]
    elif isinstance(value, dict):
        yield value
        children = [*value.keys(), *value.values()]
    elif isinstance(value, list):
        yield value
        children = value
    elif isinstance(value, tuple):
        children = value
    else:
        return
    for child in children:
        yield from _reachable(child)


def check_transfer(original: Any, copy: Any, size: int) -> List[str]:
    """Violations of ``transfer(original) == (copy, size)`` standing in for
    ``decode(encode(original))`` and ``len(encode(original))``."""
    name = type(original).__name__
    data = encode(original)
    violations = []
    if encode(copy) != data:
        violations.append(f"{name}: copy encodes differently from the original")
    if size != len(data):
        violations.append(f"{name}: transfer size {size} != encoded length {len(data)}")
    shared = {id(v) for v in _reachable(original)} & {id(v) for v in _reachable(copy)}
    if shared:
        violations.append(
            f"{name}: {len(shared)} list/dict/struct object(s) shared with the original"
        )
    return violations


class TransferRecord:
    """What crossed the ORB inside a :func:`record_transfers` block."""

    def __init__(self):
        self.messages = 0
        #: struct wire name -> occurrences, over every message sent
        self.structs: Counter = Counter()
        #: every ``group`` field carried by any struct
        self.groups: set = set()
        self.violations: List[str] = []


@contextmanager
def record_transfers():
    """Check every ``marshal.transfer`` the ORB makes inside the block.

    Each message is checked at send time, while the sender still holds the
    original unchanged; violations are collected, not raised, so a bad
    message cannot be swallowed by the protocol's own error handling.
    """
    record = TransferRecord()
    original_transfer = marshal.transfer

    def checked(value):
        copy, size = original_transfer(value)
        record.messages += 1
        for v in _reachable(value):
            if hasattr(type(v), "_wire_name"):
                record.structs[type(v).__name__] += 1
                record.groups.add(getattr(v, "group", None))
        record.violations.extend(check_transfer(value, copy, size))
        return copy, size

    marshal.transfer = checked
    try:
        yield record
    finally:
        marshal.transfer = original_transfer


#: workload id -> (runner, proof the run exercised what it is here for)
WORKLOADS = {
    "peer-symmetric": (
        lambda: peer_point("lan", 3, "symmetric", multicasts=10, seed=7),
        lambda record: record.structs["DataMsg"] > 0,
    ),
    "peer-asymmetric": (
        lambda: peer_point("lan", 3, "asymmetric", multicasts=10, seed=7),
        lambda record: record.structs["TicketMsg"] > 0,
    ),
    # the restarted manager rejoins through a state transfer
    "request-reply-manager-crash-restart": (
        lambda: run_scenario(recovery_spec(7, "manager-crash-restart")),
        lambda record: record.structs["StateSnapshot"] > 0,
    ),
    "kvstore-2-shards": (
        lambda: run_scenario(sharded_spec(7, 2, "none")),
        lambda record: {"svc:svc#0", "svc:svc#1"} <= record.groups,
    ),
    "combined-tree": (
        lambda: run_scenario(gmi_spec(7, "combined_tree", "none")),
        lambda record: record.structs["Contribution"] > 0,
    ),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_orb_message_transfers_exactly(workload):
    run, exercised = WORKLOADS[workload]
    with record_transfers() as record:
        run()
    assert exercised(record), (sorted(record.structs), sorted(map(str, record.groups)))
    assert record.violations == []


def test_checker_catches_a_shared_list():
    """The isolation check has teeth: a copy that reuses a list fails."""
    original = {"values": [1, 2]}
    copy = {"values": original["values"]}
    assert check_transfer(original, copy, len(encode(original))) == [
        "dict: 1 list/dict/struct object(s) shared with the original"
    ]
