"""Homogeneity grouping and size/deadline flush behavior.

The batcher only reads shape metadata off a request's ciphertext, so
these tests drive it with lightweight stand-ins and a manual clock --
the full stack (real ciphertexts, real execution) is covered in
``test_server.py``.
"""

import time
from types import SimpleNamespace

import pytest

from repro.serving.batcher import DynamicBatcher, homogeneity_key
from repro.serving.clock import ManualClock
from repro.serving.queue import PendingRequest
from repro.serving.session import ClientSession


def make_request(
    op="square",
    op_arg=0,
    key_id="tenant",
    n=64,
    size=2,
    levels=3,
    scale=2.0**28,
    is_ntt=True,
    now=0.0,
    key=None,
    digest=b"",
):
    ct = SimpleNamespace(n=n, size=size, level_count=levels, scale=scale, is_ntt=is_ntt)
    session = ClientSession("client", key_id)
    # admission captures a (relin, galois) pair; which slot is irrelevant here
    return PendingRequest(session, 0, op, op_arg, ct, now, (key, None), digest)


class TestHomogeneityKey:
    def test_same_shape_same_lane(self):
        assert homogeneity_key(make_request()) == homogeneity_key(make_request())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op": "rescale"},
            {"op_arg": 1, "op": "rotate"},
            {"n": 128},
            {"size": 3},
            {"levels": 2},
            {"scale": 2.0**30},
            {"is_ntt": False},
        ],
    )
    def test_shape_differences_split_lanes(self, kwargs):
        assert homogeneity_key(make_request(**kwargs)) != homogeneity_key(
            make_request()
        )

    def test_keyed_op_separates_tenants(self):
        # admission cannot produce a keyed request without a key object
        relin = object()
        a = make_request(op="square", key_id="tenant-a", key=relin)
        b = make_request(op="square", key_id="tenant-b", key=relin)
        assert homogeneity_key(a) != homogeneity_key(b)

    def test_a_rotation_step_is_data_a_program_id_is_not(self):
        keys = object()
        rot = [make_request(op="rotate", op_arg=s, key=keys) for s in (1, 2)]
        assert homogeneity_key(rot[0]) == homogeneity_key(rot[1])
        prog = [make_request(op="program", op_arg=i) for i in (1, 2)]
        assert homogeneity_key(prog[0]) != homogeneity_key(prog[1])

    def test_keyless_op_batches_across_tenants(self):
        a = make_request(op="double", key_id="tenant-a")
        b = make_request(op="double", key_id="tenant-b")
        assert homogeneity_key(a) == homogeneity_key(b)


class TestFlushPolicy:
    def test_flush_on_max_batch_size(self):
        batcher = DynamicBatcher(max_batch_size=3, max_delay_seconds=10.0)
        assert batcher.add(make_request(), now=0.0) is None
        assert batcher.add(make_request(), now=0.0) is None
        group = batcher.add(make_request(), now=0.0)
        assert group is not None and len(group) == 3
        assert batcher.pending_count == 0

    def test_flush_on_deadline(self):
        batcher = DynamicBatcher(max_batch_size=8, max_delay_seconds=1.0)
        batcher.add(make_request(), now=0.0)
        batcher.add(make_request(), now=0.5)
        assert batcher.due(now=0.9) == []
        (group,) = batcher.due(now=1.0)  # deadline counts from lane opening
        assert len(group) == 2
        assert batcher.pending_count == 0

    def test_deadline_is_per_lane(self):
        batcher = DynamicBatcher(max_batch_size=8, max_delay_seconds=1.0)
        batcher.add(make_request(op="square"), now=0.0)
        batcher.add(make_request(op="rescale"), now=0.8)
        due = batcher.due(now=1.1)
        assert [g.op for g in due] == ["square"]
        assert batcher.pending_count == 1

    def test_singleton_lane_flushes_on_deadline(self):
        batcher = DynamicBatcher(max_batch_size=8, max_delay_seconds=0.0)
        batcher.add(make_request(), now=5.0)
        (group,) = batcher.due(now=5.0)
        assert len(group) == 1

    def test_flush_all_drains_every_lane(self):
        batcher = DynamicBatcher(max_batch_size=8, max_delay_seconds=100.0)
        batcher.add(make_request(op="square"), now=0.0)
        batcher.add(make_request(op="rescale"), now=0.0)
        batcher.add(make_request(op="rescale"), now=0.0)
        groups = batcher.flush_all()
        assert sorted(len(g) for g in groups) == [1, 2]
        assert batcher.pending_count == 0 and batcher.open_lanes == 0

    def test_heterogeneous_stream_forms_separate_full_lanes(self):
        batcher = DynamicBatcher(max_batch_size=2, max_delay_seconds=10.0)
        flushed = []
        for i in range(4):
            op = "square" if i % 2 == 0 else "rescale"
            group = batcher.add(make_request(op=op), now=0.0)
            if group:
                flushed.append(group.op)
        assert sorted(flushed) == ["rescale", "square"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher(max_delay_seconds=-1.0)


class TestInjectableClock:
    """The batcher owns its clock: callers that pass no ``now`` still get
    deterministic deadlines when a manual clock is installed, which is
    how the cluster test layer controls every flush in every worker."""

    def test_default_clock_is_wall_time(self):
        assert DynamicBatcher().clock is time.monotonic

    def test_add_and_due_read_the_owned_clock(self):
        clock = ManualClock()
        batcher = DynamicBatcher(
            max_batch_size=8, max_delay_seconds=1.0, clock=clock
        )
        batcher.add(make_request())  # no explicit now: lane opens at 0.0
        clock.advance(0.9)
        assert batcher.due() == []
        clock.advance(0.1)
        (group,) = batcher.due()
        assert len(group) == 1

    def test_explicit_now_overrides_the_clock(self):
        clock = ManualClock(start=100.0)
        batcher = DynamicBatcher(
            max_batch_size=8, max_delay_seconds=1.0, clock=clock
        )
        batcher.add(make_request(), now=0.0)
        # the owned clock says 100.0, far past the deadline -- but the
        # caller's now wins
        assert batcher.due(now=0.5) == []
        (group,) = batcher.due(now=1.0)
        assert len(group) == 1

    def test_deadline_straddle_is_reproducible(self):
        """Two admissions straddling a deadline resolve identically on
        every run -- the scenario wall-clock batchers made racy."""
        for _ in range(3):
            clock = ManualClock()
            batcher = DynamicBatcher(
                max_batch_size=8, max_delay_seconds=1.0, clock=clock
            )
            batcher.add(make_request())
            clock.advance(0.999999)
            batcher.add(make_request())  # lands just inside the deadline
            assert batcher.due() == []
            clock.advance(0.000001)
            (group,) = batcher.due()
            assert len(group) == 2  # both flush with the lane, every run


class TestKeyMaterialIdentity:
    """Keyed lanes bind to the key object captured on the request at
    admission, not the key_id label (and not the session's current key)."""

    def test_same_key_id_different_relin_keys_split_lanes(self):
        # claims the same label, carries different key material
        a = make_request(op="square", key_id="shared", key=object())
        b = make_request(op="square", key_id="shared", key=object())
        assert homogeneity_key(a) != homogeneity_key(b)

    def test_shared_key_objects_share_lane(self):
        relin = object()
        a = make_request(op="square", key_id="shared", key=relin)
        b = make_request(op="square", key_id="shared", key=relin)
        assert homogeneity_key(a) == homogeneity_key(b)

    def test_galois_ops_bind_to_captured_key_set(self):
        keys = object()
        a = make_request(op="rotate", op_arg=1, key_id="shared", key=keys)
        b = make_request(op="rotate", op_arg=1, key_id="shared", key=object())
        assert homogeneity_key(a) != homogeneity_key(b)

    def test_session_key_swap_does_not_move_pending_request(self):
        """The lane follows the captured key even if the session mutates."""
        captured = object()
        a = make_request(op="square", key_id="shared", key=captured)
        lane_before = homogeneity_key(a)
        a.session.relin_key = object()  # key rotation while pending
        assert homogeneity_key(a) == lane_before


class TestLaneRule:
    """One kind of lane: op, the key objects consumed, ciphertext shape.
    A rotation's step and its payload digest are per-request data."""

    def _rotate(self, step, digest, key, **shape):
        return make_request(op="rotate", op_arg=step, key=key, digest=digest, **shape)

    def test_same_digest_different_steps_share_the_rotate_lane(self):
        batcher = DynamicBatcher(max_batch_size=8, max_delay_seconds=100.0)
        keys = object()
        batcher.add(self._rotate(1, b"ct-a", keys), now=0.0)
        batcher.add(self._rotate(2, b"ct-a", keys), now=0.0)
        (group,) = batcher.flush_all()
        assert group.op == "rotate"
        assert [r.op_arg for r in group.requests] == [1, 2]

    def test_different_digests_and_steps_share_the_rotate_lane(self):
        batcher = DynamicBatcher(max_batch_size=8, max_delay_seconds=100.0)
        keys = object()
        batcher.add(self._rotate(1, b"ct-a", keys), now=0.0)
        batcher.add(self._rotate(1, b"ct-b", keys), now=0.0)
        batcher.add(self._rotate(2, b"ct-a", keys), now=0.0)
        batcher.add(self._rotate(3, b"", keys), now=0.0)  # digestless too
        (group,) = batcher.flush_all()
        # arrival order is kept: nothing migrates, nothing is extracted
        assert [(r.op_arg, r.payload_digest) for r in group.requests] == [
            (1, b"ct-a"), (1, b"ct-b"), (2, b"ct-a"), (3, b""),
        ]

    @pytest.mark.parametrize(
        "other",
        [
            {"key": object()},  # same bytes under different key material
            {"key_id": "another-tenant"},
            {"levels": 2},
            {"scale": 2.0**30},
            {"size": 3},
        ],
        ids=["key-objects", "key-id", "levels", "scale", "size"],
    )
    def test_other_keys_or_shapes_never_share_it(self, other):
        batcher = DynamicBatcher(max_batch_size=8, max_delay_seconds=100.0)
        keys = object()
        batcher.add(self._rotate(1, b"x", keys), now=0.0)
        batcher.add(self._rotate(2, b"x", **{"key": keys, **other}), now=0.0)
        groups = batcher.flush_all()
        assert [len(g) for g in groups] == [1, 1]

    def test_lane_keeps_its_first_members_open_time(self):
        batcher = DynamicBatcher(max_batch_size=8, max_delay_seconds=1.0)
        keys = object()
        batcher.add(self._rotate(1, b"ct-a", keys), now=0.0)
        batcher.add(self._rotate(2, b"ct-a", keys), now=0.6)
        assert batcher.due(now=0.9) == []
        (group,) = batcher.due(now=1.0)  # 1.0 after the first, not the last
        assert group.opened_at == 0.0 and len(group) == 2

    def test_rotate_lane_fills_to_max_batch_size(self):
        batcher = DynamicBatcher(max_batch_size=3, max_delay_seconds=100.0)
        keys = object()
        assert batcher.add(self._rotate(1, b"x", keys), now=0.0) is None
        assert batcher.add(self._rotate(2, b"y", keys), now=0.0) is None
        group = batcher.add(self._rotate(3, b"x", keys), now=0.0)
        assert group is not None and len(group) == 3
        assert batcher.pending_count == 0 and batcher.open_lanes == 0
