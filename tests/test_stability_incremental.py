"""Incremental stability release against the full scan it replaced.

:func:`repro.groupcomm.session.release_stable` keeps a per-sender FIFO of
unstable message ids and looks at a sender only while its oldest message
could be released.  The oracle below is the earlier full scan, which
computed every sender's stable level over all unstable messages.  Random
interleavings of own sends, received data and NULLs with arbitrary ack
vectors must release exactly the same ids, with the same own count, on
every step, and leave ``unstable`` in the same order.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.groupcomm.session import release_stable

VIEW_ID = 3


def full_scan_release(
    unstable: Dict[Tuple[int, str, int], object],
    members: List[str],
    member_id: str,
    own_top: int,
    recv_gseq: Dict[str, int],
    acked: Dict[str, Dict[str, int]],
) -> int:
    """The full-scan release: every sender's stable level, then one pass."""
    stable: Dict[str, int] = {}
    for mid in unstable:
        sender = mid[1]
        if sender in stable:
            continue
        if sender != member_id and sender not in members:
            stable[sender] = 0
            continue
        low = own_top if sender == member_id else recv_gseq.get(sender, 0)
        if low > 0:
            for member in members:
                if member == member_id:
                    continue
                peer_acks = acked.get(member)
                theirs = 0 if peer_acks is None else peer_acks.get(sender, 0)
                if theirs < low:
                    low = theirs
                    if low <= 0:
                        break
        stable[sender] = low
    own_released = 0
    for msg_id in [mid for mid in unstable if mid[2] <= stable[mid[1]]]:
        if msg_id[1] == member_id:
            own_released += 1
        del unstable[msg_id]
    return own_released


#: one step: (op, member index, ack vector; -1 leaves that key out)
STEP = st.tuples(
    st.sampled_from(["send", "data", "null"]),
    st.integers(0, 4),
    st.lists(st.integers(-1, 14), min_size=5, max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(2, 5),
    me=st.integers(0, 4),
    steps=st.lists(STEP, max_size=80),
)
def test_incremental_release_matches_full_scan(size, me, steps):
    members = [f"m{i}" for i in range(size)]
    member_id = members[me % size]
    peers = [m for m in members if m != member_id]
    unstable: Dict[Tuple[int, str, int], object] = {}
    fifos: Dict[str, deque] = {}
    oracle: Dict[Tuple[int, str, int], object] = {}
    recv_gseq = {m: 0 for m in members}
    acked: Dict[str, Dict[str, int]] = {}
    own_top = 0

    def hold(msg_id):
        unstable[msg_id] = oracle[msg_id] = msg_id
        fifos.setdefault(msg_id[1], deque()).append(msg_id)

    for op, who, vector in steps:
        if op == "send":
            own_top += 1
            hold((VIEW_ID, member_id, own_top))
            continue
        reporter = peers[who % len(peers)]
        if op == "data":
            recv_gseq[reporter] += 1
            hold((VIEW_ID, reporter, recv_gseq[reporter]))
        acked[reporter] = {m: v for m, v in zip(members, vector) if v >= 0}
        before = list(unstable)
        released = release_stable(
            unstable, fifos, members, member_id, own_top, recv_gseq, acked
        )
        expected = full_scan_release(
            oracle, members, member_id, own_top, recv_gseq, acked
        )
        assert released == expected
        assert list(unstable) == list(oracle)
        assert [m for m in before if m not in unstable] == [
            m for m in before if m not in oracle
        ]
        for sender, fifo in fifos.items():
            gseqs = [mid[2] for mid in fifo]
            assert gseqs == sorted(set(gseqs)), f"{sender}: FIFO not ascending"
            assert all(mid[1] == sender for mid in fifo)
        assert sorted(mid for fifo in fifos.values() for mid in fifo) == sorted(unstable)


def test_release_stops_at_the_first_member_below_the_oldest_id():
    """A sender whose oldest message some member lacks releases nothing,
    even when other members have acked far beyond it."""
    members = ["a", "b", "c"]
    unstable = {(1, "b", g): None for g in (1, 2, 3)}
    fifos = {"b": deque(unstable)}
    acked = {"b": {"b": 3}, "c": {"b": 0}}
    assert release_stable(unstable, fifos, members, "a", 0, {"b": 3}, acked) == 0
    assert len(unstable) == 3
    acked["c"] = {"b": 2}
    assert release_stable(unstable, fifos, members, "a", 0, {"b": 3}, acked) == 0
    assert list(unstable) == [(1, "b", 3)]
    assert list(fifos["b"]) == [(1, "b", 3)]
