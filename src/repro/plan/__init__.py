"""repro.plan -- the op-graph workload planner.

Express an encrypted workload once as a small DAG
(:class:`~repro.plan.graph.PlanGraph`), let the pass pipeline place
rescales and validate scale/level discipline
(:mod:`repro.plan.passes`), and execute it through
:class:`~repro.plan.executor.PlanExecutor`, which fuses rotation sweeps
onto hoisted key-switch decompositions and packs independent same-shape
nodes into batch lanes -- then replay the same measured run through the
HEAX module models (:mod:`repro.plan.hwsim`).

Quickstart::

    from repro.plan import PlanGraph, compile_plan, PlanExecutor

    g = PlanGraph()
    x = g.input("x")
    y = g.square(x)              # scale becomes delta^2 ...
    g.output(g.mul_plain(y, g.const(0.5)), "out")
    plan = compile_plan(g, context)       # ... planner inserts the rescale
    run = PlanExecutor(context, relin_key=rk).run(plan, {"x": ct})
    run.outputs["out"], run.scheduled_ops()
"""

from repro.plan.executor import PlanExecutor, PlanRun, PlanStep
from repro.plan.graph import PlanGraph, PlanNode
from repro.plan.hwsim import ModeledReplay, modeled_replay, modeled_replays
from repro.plan.lower import matvec_graph, workload_graph
from repro.plan.passes import (
    PlanValidationError,
    check_plan,
    compile_plan,
    place_rescales,
)

__all__ = [
    "PlanGraph",
    "PlanNode",
    "PlanExecutor",
    "PlanRun",
    "PlanStep",
    "PlanValidationError",
    "check_plan",
    "place_rescales",
    "compile_plan",
    "matvec_graph",
    "workload_graph",
    "ModeledReplay",
    "modeled_replay",
    "modeled_replays",
]
