"""R4 -- exact-length wire discipline in ``ckks.serialization``.

PR 3 hardened deserialization after the original sin of wire formats:
``int.from_bytes(b"", "little") == 0``, so a truncated residue row
silently decodes as zeros and gets *served*.  The fix is structural --
every deserializer validates the payload byte count **exactly**
(truncated *and* trailing bytes both raise) before decoding a single
word -- and PR 7's bit-packed v2 layout kept the same shape.

This rule pins that structure down for every future wire object:

* every public ``serialize_<thing>`` in :mod:`repro.ckks.serialization`
  must have a paired ``deserialize_<thing>`` (an encoder nobody can
  decode is dead wire format; an unpaired decoder hints at a rename
  that left the pair behind);
* every ``deserialize_*`` body must call the exact-length check
  (``_check_payload``) before it can reach a decode -- itself, or
  through a function of the module it calls (a decoder built as
  "admit the header and length, then unpack" keeps the check in its
  admission half) -- a new deserializer that forgets it reintroduces
  the silent-zeros bug for its object kind.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List

from repro.lint.core import Finding, Rule, SourceModule

#: The wire-format module the invariant covers.
SERIALIZATION_MODULES = ("repro.ckks.serialization",)

SERIALIZE_PREFIX = "serialize_"
DESERIALIZE_PREFIX = "deserialize_"

#: The exact-length validator every decoder must run.
PAYLOAD_CHECK = "_check_payload"


def _calls_in(node: ast.AST) -> Iterable[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def _reaches_check(name: str, top_level: Dict[str, ast.FunctionDef], seen=()) -> bool:
    """Does ``name`` run the payload check -- itself, or through the
    module-level functions it calls?"""
    calls = set(_calls_in(top_level[name]))
    return PAYLOAD_CHECK in calls or any(
        _reaches_check(callee, top_level, (*seen, name))
        for callee in calls & top_level.keys() - {name, *seen}
    )


class WireDisciplineRule(Rule):
    """Paired serializers; decoders validate exact payload length."""

    id = "R4"
    title = "exact-length wire discipline in ckks.serialization"
    invariant_origin = "PR 3 (truncation hardening) / PR 7 (wire format v2)"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if module.module not in SERIALIZATION_MODULES:
            return ()
        top_level: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        findings: List[Finding] = []
        for name, node in top_level.items():
            if name.startswith(SERIALIZE_PREFIX):
                pair = DESERIALIZE_PREFIX + name[len(SERIALIZE_PREFIX):]
                if pair not in top_level:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            name,
                            f"{name} has no paired {pair}; every wire object "
                            "needs both directions in this module",
                        )
                    )
            elif name.startswith(DESERIALIZE_PREFIX):
                pair = SERIALIZE_PREFIX + name[len(DESERIALIZE_PREFIX):]
                if pair not in top_level:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            name,
                            f"{name} has no paired {pair}; a decoder without "
                            "its encoder hints at a rename that left the "
                            "pair behind",
                        )
                    )
                if not _reaches_check(name, top_level):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            name,
                            f"{name} never calls {PAYLOAD_CHECK}; without an "
                            "exact-length check a truncated payload decodes "
                            "as silent zeros (PR 3 hardening invariant)",
                        )
                    )
        return findings
