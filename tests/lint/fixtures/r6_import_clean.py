# lint-fixture-path: src/repro/serving/fixture.py
# R6 clean fixture: the plan is the door -- a serving module imports
# the planner and ciphertext containers, never an evaluator class.

from repro.ckks.poly import Ciphertext
from repro.plan import PlanExecutor, PlanGraph


def flush(context, ciphertexts):
    graph = PlanGraph()
    for i, _ in enumerate(ciphertexts):
        graph.output(graph.negate(graph.input(f"r{i}")), f"r{i}")
    run = PlanExecutor(context).run(
        graph, {f"r{i}": ct for i, ct in enumerate(ciphertexts)}
    )
    return [run.outputs[f"r{i}"] for i in range(len(ciphertexts))]
