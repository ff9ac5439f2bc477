# lint-fixture-path: src/repro/ckks/serialization.py
# R4 clean fixture: the wire object has both directions and the
# decoder validates the exact payload length before decoding -- itself,
# or in the admission helper it is built over.


def _check_payload(payload, expected):
    if len(payload) != expected:
        raise ValueError("payload length mismatch")


def serialize_widget(widget):
    return bytes([widget.kind])


def deserialize_widget(payload):
    _check_payload(payload, 1)
    return payload[0]


def _admit_gizmo(payload):
    _check_payload(payload, 2)
    return payload


def serialize_gizmo(gizmo):
    return bytes([gizmo.kind, gizmo.size])


def deserialize_gizmo(payload):
    return tuple(_admit_gizmo(payload))
