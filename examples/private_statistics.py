#!/usr/bin/env python3
"""Privacy-preserving statistics over encrypted data.

A hospital (the client) uploads encrypted patient measurements; the
analytics provider (the server) computes mean, variance and a weighted
risk index over the ciphertexts -- HIPAA/GDPR-style outsourcing (the
regulatory motivation of the paper's introduction) with no plaintext
access server-side.

The reductions and the dot product are plan fragments
(:func:`repro.plan.lower.rotate_and_sum`, :func:`repro.plan.lower.dot_plain`)
in one :class:`repro.plan.PlanGraph` that the planner rescales and runs;
the variance's scale alignment stays eager, because its scale ratio
(about 4) is too small for the planner's unit-multiply alignment.

Run:  python examples/private_statistics.py
"""

import numpy as np

from repro.ckks import (
    CkksContext,
    CkksEncoder,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.ckks.context import toy_parameters
from repro.plan import PlanExecutor, PlanGraph, compile_plan
from repro.plan.lower import dot_plain, reduction_steps, rotate_and_sum


def main() -> None:
    context = CkksContext(toy_parameters(n=256, k=4, prime_bits=30))
    keygen = KeyGenerator(context, seed=51)
    encoder = CkksEncoder(context)
    encryptor = Encryptor(context, keygen.public_key(), seed=52)
    decryptor = Decryptor(context, keygen.secret_key)
    evaluator = Evaluator(context)
    relin = keygen.relin_key()

    m = 64  # cohort size (must divide the slot count here)
    galois = keygen.galois_keys(reduction_steps(m))

    # ------------------------------------------------------------------
    # Client: encrypt the cohort's measurements.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(3)
    measurements = rng.normal(loc=2.0, scale=0.5, size=m)
    padded = np.zeros(encoder.slot_count)
    padded[:m] = measurements
    ct = encryptor.encrypt(encoder.encode(padded))
    print(f"client uploaded {m} encrypted measurements")

    # ------------------------------------------------------------------
    # Server: one plan for the reductions and the dot product:
    #   mean  = sum(x)/m   (rotate-and-sum, then plaintext 1/m),
    #   E[x^2] = sum(x^2)/m over the eagerly squared cohort,
    #   risk  = <w, x> for a proprietary weight vector the client never
    #           learns (and the server never sees x).
    # ------------------------------------------------------------------
    sq = evaluator.rescale(evaluator.relinearize(evaluator.square(ct), relin))
    weights = rng.uniform(0, 1, m)
    graph = PlanGraph()
    x = graph.input("x", level_count=ct.level_count, scale=ct.scale)
    x2 = graph.input("x2", level_count=sq.level_count, scale=sq.scale)
    inv_m = graph.const(1.0 / m)
    graph.output(graph.mul_plain(rotate_and_sum(graph, x, m), inv_m), "mean")
    graph.output(graph.mul_plain(rotate_and_sum(graph, x2, m), inv_m), "ex2")
    graph.output(dot_plain(graph, x, weights), "risk")
    plan = compile_plan(graph, context)  # rescales the two means
    run = PlanExecutor(context, galois_keys=galois).run(plan, {"x": ct, "x2": sq})
    mean_ct, ex2_ct, risk_ct = (run.outputs[k] for k in ("mean", "ex2", "risk"))

    # ------------------------------------------------------------------
    # Server: Var = E[x^2] - mean^2, aligned by hand.
    # ------------------------------------------------------------------
    mean_sq = evaluator.rescale(
        evaluator.relinearize(evaluator.square(mean_ct), relin)
    )
    # align E[x^2] (level 2, scale s1) with mean^2 (level 1, scale s2):
    # multiply by 1.0 encoded at the scale ratio so both land equal.
    ratio = mean_sq.scale * float(ex2_ct.moduli[-1].value) / ex2_ct.scale
    ex2_aligned = evaluator.rescale(
        evaluator.multiply_plain(
            ex2_ct, encoder.encode(1.0, scale=ratio, level_count=ex2_ct.level_count)
        )
    )
    # drop mean^2 to the same level with a scale-neutral unit multiply
    mean_sq_aligned = evaluator.rescale(
        evaluator.multiply_plain(
            mean_sq,
            encoder.encode(
                1.0,
                scale=float(mean_sq.moduli[-1].value),
                level_count=mean_sq.level_count,
            ),
        )
    )
    var_ct = evaluator.sub(ex2_aligned, mean_sq_aligned)

    # ------------------------------------------------------------------
    # Client: decrypt results.
    # ------------------------------------------------------------------
    mean = encoder.decode(decryptor.decrypt(mean_ct)).real[0]
    var = encoder.decode(decryptor.decrypt(var_ct)).real[0]
    risk = encoder.decode(decryptor.decrypt(risk_ct)).real[0]

    print(f"mean:     {mean:8.4f}   (true {measurements.mean():8.4f})")
    print(f"variance: {var:8.4f}   (true {measurements.var():8.4f})")
    print(f"risk:     {risk:8.4f}   (true {weights @ measurements:8.4f})")

    assert abs(mean - measurements.mean()) < 1e-2
    assert abs(var - measurements.var()) < 5e-2
    assert abs(risk - weights @ measurements) < 5e-2
    print("all encrypted statistics match the plaintext computation")


if __name__ == "__main__":
    main()
