#!/usr/bin/env python3
"""Oblivious ML inference: encrypted logistic regression, planner-scheduled.

The paper's motivating application (Section 1): a client sends an
*encrypted* feature vector to an MLaaS server; the server evaluates its
model on the ciphertext -- dot product, bias, and a polynomial sigmoid
approximation -- and returns an encrypted score only the client can
decrypt.

The server-side program uses exactly the operations HEAX accelerates:
ciphertext-plaintext multiplication, rotations (for the dot-product
reduction), relinearization, and rescaling.  Unlike a hand-scheduled
evaluator script, the program here is *declared* as a
:class:`repro.plan.PlanGraph` DAG with no rescale in sight: the planner
(`compile_plan`) places every rescale and level drop, validates the
scale/level discipline up front, and the executor runs the DAG with
sweep fusion and batch packing where the dataflow allows.

Run:  python examples/encrypted_inference.py
"""

import numpy as np

from repro.ckks import (
    CkksContext,
    CkksEncoder,
    Decryptor,
    Encryptor,
    KeyGenerator,
)
from repro.ckks.context import toy_parameters
from repro.plan import PlanExecutor, PlanGraph, check_plan, compile_plan
from repro.plan.lower import dot_plain, polynomial, reduction_steps, rotate_and_sum

#: Degree-3 least-squares fit of the sigmoid on [-6, 6] (a standard
#: CKKS-friendly approximation; cf. the logistic-regression-over-HE line
#: of work cited by the paper [51]).
SIGMOID_COEFFS = (0.5, 0.197, 0.0, -0.004)


def sigmoid_poly(z: np.ndarray) -> np.ndarray:
    c0, c1, c2, c3 = SIGMOID_COEFFS
    return c0 + c1 * z + c2 * z * z + c3 * z**3


def build_inference_graph(dims: int, weights: np.ndarray, bias: float) -> PlanGraph:
    """The whole inference program as one rescale-free DAG.

    ``score = c0 + z * (c1 + c3 * z^2)`` with ``z = <w, x> + b`` --
    the Horner-style grouping keeps every coefficient a plain additive
    constant (``add_const`` encodes at its operand's exact runtime
    scale), so the planner owns *all* scale management: the graph
    contains zero rescale nodes and ``compile_plan`` inserts every one.
    """
    c0, c1, _, c3 = SIGMOID_COEFFS
    g = PlanGraph()
    x = g.input("x")

    # z = <w, x> + b: elementwise C-P multiply, log-depth rotate-and-sum
    # (each rotation a KeySwitch), plaintext bias add.  The accumulation
    # runs at product scale -- the planner's lazy-rescale policy, the
    # same Halevi-Shoup idiom the matvec kernel uses.
    acc = rotate_and_sum(g, g.mul_plain(x, g.const(list(weights))), dims)
    z = g.add_const(acc, g.const(bias))

    # sigmoid(z) ~ c0 + z * (c1 + c3 * z^2)
    z2 = g.square(z)
    inner = g.add_const(g.mul_plain(z2, g.const(c3)), g.const(c1))
    score = g.add_const(g.mul_relin(z, inner), g.const(c0))
    g.output(score, "score")
    return g


def build_power_basis_graph(weights: np.ndarray, bias: float, context) -> PlanGraph:
    """The same score with the sigmoid as the power-basis fragment
    :func:`repro.plan.lower.polynomial`.  The planner types input slots
    as at most 1, so ``z`` can reach ``r = |w|_1 + |b|``; the fragment
    runs on ``u = z / r`` with coefficients ``c_i r^i``, the usual range
    normalization before a power basis."""
    r = float(np.abs(weights).sum() + abs(bias))
    g = PlanGraph()
    u = g.add_const(dot_plain(g, g.input("x"), list(weights / r)), g.const(bias / r))
    coeffs = [c * r**i for i, c in enumerate(SIGMOID_COEFFS)]
    g.output(polynomial(g, u, coeffs, context), "score")
    return g


def main() -> None:
    # Five levels: the planner spends them on the C-P product, the
    # square, the cubic combine, and the output normalization.
    params = toy_parameters(n=256, k=5, prime_bits=30, scale=2.0**28)
    context = CkksContext(params)
    encoder = CkksEncoder(context)
    keygen = KeyGenerator(context, seed=99)
    encryptor = Encryptor(context, keygen.public_key(), seed=5)
    decryptor = Decryptor(context, keygen.secret_key)
    relin = keygen.relin_key()

    # Rotation keys for the log-depth rotate-and-sum reduction.
    dims = 8
    galois = keygen.galois_keys(reduction_steps(dims))

    # ------------------------------------------------------------------
    # The model (server-side, in the clear): weights + bias.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(1)
    weights = rng.uniform(-1, 1, dims)
    bias = 0.25

    # ------------------------------------------------------------------
    # Server: declare the program, let the planner schedule it.
    # ------------------------------------------------------------------
    graph = build_inference_graph(dims, weights, bias)
    assert graph.op_counts().get("rescale", 0) == 0  # none written by hand
    plan = compile_plan(graph, context)  # place rescales + validate
    placed = plan.op_counts().get("rescale", 0)
    print(
        f"planner scheduled {len(plan)} nodes "
        f"({placed} rescales placed, 0 written by hand)"
    )

    # ------------------------------------------------------------------
    # The query (client-side): one feature vector, encrypted.
    # ------------------------------------------------------------------
    features = rng.uniform(-1, 1, dims)
    ct = encryptor.encrypt(encoder.encode(features))
    print(f"client sent encrypted query with {dims} features")

    # ------------------------------------------------------------------
    # Execute: one plan run replaces the hand-written evaluator script.
    # ------------------------------------------------------------------
    executor = PlanExecutor(context, relin_key=relin, galois_keys=galois)
    run = executor.run(plan, {"x": ct})
    score = run.outputs["score"]
    # the planner's typed noise bound on the score
    typed = check_plan(plan, context)[plan.outputs["score"]][0]
    print(
        f"executed {run.step_count} schedule steps in "
        f"{run.compute_seconds * 1e3:.1f} ms (software)"
    )

    # ------------------------------------------------------------------
    # Client: decrypt and compare with the plaintext model.
    # ------------------------------------------------------------------
    decrypted = encoder.decode(decryptor.decrypt(score)).real[0]
    z_true = float(weights @ features + bias)
    expected = float(sigmoid_poly(np.array([z_true]))[0])
    print(f"encrypted inference score: {decrypted:.6f}")
    print(f"plaintext reference:       {expected:.6f}")
    error = abs(decrypted - expected)
    print(
        f"|error| = {error:.2e}   (typed bound 2^-{typed.precision_bits:.1f}: "
        f"{typed.precision_bits:.1f} bits of precision)"
    )
    assert error < 5e-2 and error <= 2.0**-typed.precision_bits

    # the power-basis fragment computes the same score
    power = compile_plan(build_power_basis_graph(weights, bias, context), context)
    out = executor.run(power, {"x": ct}).outputs["score"]
    power_score = encoder.decode(decryptor.decrypt(out)).real[0]
    power_bits = check_plan(power, context)[power.outputs["score"]][0].precision_bits
    print(
        f"power-basis sigmoid:       {power_score:.6f}   "
        f"(|error| {abs(power_score - expected):.2e}, typed {power_bits:.1f} bits)"
    )
    assert abs(power_score - expected) < 5e-2
    print("oblivious inference matched the plaintext model")


if __name__ == "__main__":
    main()
