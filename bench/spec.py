"""``BENCHMARK.json`` is the one declaration of workloads and metrics;
everything else in ``bench/`` reads names, units and bounds from it."""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Dict, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent

_EXACT_COUNTS = (
    "wire_bytes_per_req", "plan.hwsim_modeled_ms", "plan.steps", "plan.sweeps",
    "plan.fused_rotations", "plan.lanes", "plan.packed_ops",
)


class Declared(NamedTuple):
    workloads: Dict[str, str]  # name -> why
    run_seconds: int
    end_to_end: Dict[str, dict]  # name -> {"unit", "better", "bound"}
    per_layer: Dict[str, dict]  # name -> {"unit", "better"}
    #: metrics two runs of the same code must report identically
    exact: Tuple[str, ...]


@functools.lru_cache(maxsize=None)
def declared() -> Declared:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    return Declared(
        workloads={w["name"]: w["why"] for w in spec["workloads"]},
        run_seconds=spec["run_seconds"],
        end_to_end={m["name"]: m for m in spec["end_to_end"]},
        per_layer=per_layer,
        exact=_EXACT_COUNTS
        + tuple(name for name in per_layer if name.endswith("_rows")),
    )
