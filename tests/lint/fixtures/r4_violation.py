# lint-fixture-path: src/repro/ckks/serialization.py
# R4 violating fixture, four findings expected: an encoder without its
# decoder, a decoder without its encoder, that same decoder never
# running the exact-length payload check, and a paired decoder whose
# helper does not run it either.


def serialize_widget(widget):
    return bytes([widget.kind])


def deserialize_gadget(payload):
    return payload[0]


def _peek(payload):
    return payload[:2]


def serialize_gizmo(gizmo):
    return bytes([gizmo.kind, gizmo.size])


def deserialize_gizmo(payload):
    return tuple(_peek(payload))
