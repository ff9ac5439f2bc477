"""Reusable cross-backend differential harness.

Drives *seeded random operation sequences* (add / sub / multiply+relin /
rescale / rotate / conjugate / plain ops) through every combination of

* backend: ``reference`` vs ``numpy``, and
* execution mode: per-ciphertext :class:`~repro.ckks.evaluator.Evaluator`
  vs batched :class:`~repro.ckks.batch.BatchEvaluator`,

and asserts two properties:

1. **bit-identity** -- all four traces produce identical ciphertext
   residue rows after *every* step (the backends are interchangeable by
   contract, and a batched op is exactly N independent scalar ops);
2. **correctness** -- the final decode matches a plaintext model of the
   same program within CKKS precision.

Randomness discipline: both execution modes consume the encryption
sampler in the *same order* (step-major: within a step, operand
ciphertexts for elements 0..N-1 are encrypted in order), so a fixed
seed yields byte-identical ciphertexts whichever mode runs -- making
batched-vs-unbatched divergence a hard failure instead of a statistical
argument.

Programs are feasibility-aware: an op is only emitted when the tracked
(size, level) state can execute it, and every ciphertext-ciphertext
multiply is immediately relinearized and, when a level remains,
rescaled -- the standard CKKS idiom, which also keeps the plaintext
model's precision honest.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import numpy as np

from repro.ckks.batch import BatchEvaluator
from repro.ckks.backend import use_backend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear import LinearEvaluator

#: Ops a program may contain; weights bias toward the cheap ones so a
#: short program still exercises variety without exhausting levels.
_OP_WEIGHTS = (
    ("add", 3),
    ("sub", 2),
    ("mul_relin", 2),
    ("mul_plain", 2),
    ("rotate", 2),
    ("rotate_hoisted", 2),
    ("conjugate", 1),
    ("negate", 1),
    ("rescale", 1),
    ("matvec", 1),
)

#: Rotation step used by ``rotate``/``rotate_hoisted`` ops (its Galois
#: key is generated).  The hoisted variant must be bit-identical to the
#: plain one -- they share the digit-permuting dataflow by construction.
ROTATE_STEP = 1


def matvec_unhoisted(ctx, matrix, ct, galois_keys):
    """The pre-hoisting diagonal matvec: one ``rotate_unhoisted`` (its
    own coefficient-domain round trip and key-switch decomposition) per
    nonzero diagonal -- the baseline ``LinearEvaluator.matvec_diagonal``
    is costed and checked against."""
    ev, enc = Evaluator(ctx), CkksEncoder(ctx)
    matrix = np.asarray(matrix, dtype=np.float64)
    dim = matrix.shape[0]
    idx = np.arange(dim)
    diags = matrix[idx[None, :], (idx[None, :] + idx[:, None]) % dim]
    acc = None
    for d in range(dim):
        if not diags[d].any():
            continue
        rotated = ct if d == 0 else ev.rotate_unhoisted(ct, d, galois_keys)
        term = ev.multiply_plain(
            rotated, enc.encode(list(diags[d]), level_count=ct.level_count)
        )
        acc = term if acc is None else ev.add(acc, term)
    return ev.rescale(acc)


def _matvec_matrix(dim: int, base_seed: int) -> np.ndarray:
    """The deterministic matvec operand: dim == slot_count so rotations
    wrap exactly; a few generalized diagonals are zeroed so the
    skip-zero-diagonal fast path is exercised under the bit-identity
    microscope."""
    rng = np.random.default_rng(base_seed)
    matrix = rng.uniform(-1.0, 1.0, (dim, dim)) / np.sqrt(dim)
    i = np.arange(dim)
    for d in (3, dim // 2, dim - 1):
        matrix[i, (i + d) % dim] = 0.0
    return matrix


def generate_program(
    seed: int,
    length: int = 6,
    k: int = 3,
    scale_bits: int = 28,
    prime_bits: int = 30,
) -> List[str]:
    """A feasibility-checked random op sequence for a depth-``k`` chain.

    Tracks the (level, scale) budget the way a CKKS compiler would: an
    op is only emitted when the resulting scale still fits under the
    remaining modulus with headroom (no wrap-around) and stays above a
    precision floor (so the final decode remains meaningful).
    """
    rng = random.Random(seed)
    ops = [op for op, w in _OP_WEIGHTS for _ in range(w)]
    program: List[str] = []
    level = k
    s = float(scale_bits)
    headroom = 12  # bits between the scaled message and q_level
    floor = 22  # precision floor for the final decode
    while len(program) < length:
        op = rng.choice(ops)
        if op == "mul_relin":
            # operand is encoded at the default scale; the pair
            # multiplies then rescales, costing one level
            if level < 2 or s + scale_bits + headroom > prime_bits * level:
                continue
            if s + scale_bits - prime_bits < floor:
                continue
            program += ["mul_relin", "rescale"]
            s += scale_bits - prime_bits
            level -= 1
        elif op == "matvec":
            # one C-P multiply level plus an internal rescale
            if level < 2 or s + scale_bits + headroom > prime_bits * level:
                continue
            if s + scale_bits - prime_bits < floor:
                continue
            program.append("matvec")
            s += scale_bits - prime_bits
            level -= 1
        elif op == "rescale":
            if level < 2 or s - prime_bits < floor:
                continue
            program.append("rescale")
            s -= prime_bits
            level -= 1
        elif op == "mul_plain":
            if s + scale_bits + headroom > prime_bits * level:
                continue
            program.append("mul_plain")
            s += scale_bits
        else:
            program.append(op)
    return program[:length]


def _operand_values(rng: random.Random, slots: int) -> List[complex]:
    """Bounded random slot values (|v| <= 1 keeps noise growth tame)."""
    return [
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(slots)
    ]


class _ModelState:
    """Plaintext-side mirror of the homomorphic program."""

    def __init__(self, values: np.ndarray):
        self.values = values.copy()

    def apply(self, op: str, operand: Optional[np.ndarray]) -> None:
        if op == "add":
            self.values = self.values + operand
        elif op == "sub":
            self.values = self.values - operand
        elif op in ("mul_relin", "mul_plain"):
            self.values = self.values * operand
        elif op in ("rotate", "rotate_hoisted"):
            self.values = np.roll(self.values, -ROTATE_STEP)
        elif op == "matvec":
            # dim == slot_count, so the encrypted diagonal method is an
            # exact cyclic matvec over the slot vector
            self.values = operand @ self.values
        elif op == "conjugate":
            self.values = np.conj(self.values)
        elif op == "negate":
            self.values = -self.values
        elif op == "rescale":
            pass  # scale bookkeeping only; slot values are unchanged
        else:
            raise ValueError(f"unknown op {op!r}")


def run_program(
    program: List[str],
    backend_name: str,
    batched: bool,
    *,
    n: int = 64,
    k: int = 3,
    batch_count: int = 3,
    base_seed: int = 1000,
    rematerialize: bool = False,
) -> Dict:
    """Execute a program in one (backend, mode) combination.

    Returns per-step canonical residue rows for every batch element,
    the final decoded slot vectors, and the plaintext-model expectation.

    With ``rematerialize=True`` every ciphertext is torn down to
    canonical Python lists and rebuilt after each step, forcing the
    list-interchange path; results must stay bit-identical to the
    backend-resident run (the residency property test).
    """
    value_rng = random.Random(base_seed)  # same value stream in every run
    with use_backend(backend_name):
        ctx = CkksContext(toy_parameters(n=n, k=k, prime_bits=30))
        keygen = KeyGenerator(ctx, seed=base_seed + 1)
        encryptor = Encryptor(ctx, keygen.public_key(), seed=base_seed + 2)
        encoder = CkksEncoder(ctx)
        decryptor = Decryptor(ctx, keygen.secret_key)
        relin_key = keygen.relin_key()
        slots = ctx.params.slot_count
        rotate_steps = [ROTATE_STEP]
        if "matvec" in program:
            rotate_steps += list(range(1, slots))
        galois_keys = keygen.galois_keys(rotate_steps, conjugation=True)
        matvec_matrix = (
            _matvec_matrix(slots, base_seed) if "matvec" in program else None
        )
        linear = LinearEvaluator(ctx)

        init_values = [
            np.array(_operand_values(value_rng, slots)) for _ in range(batch_count)
        ]
        models = [_ModelState(v) for v in init_values]
        init_pts = [encoder.encode(list(v)) for v in init_values]

        steps: List[List] = []
        if batched:
            bev = BatchEvaluator(ctx)
            state = bev.encrypt(encryptor, init_pts)
        else:
            ev = Evaluator(ctx)
            state = [encryptor.encrypt(pt) for pt in init_pts]

        def snapshot():
            cts = state.split() if batched else state
            steps.append([[p.residues for p in ct.polys] for ct in cts])

        snapshot()
        for op in program:
            scale = state.scale if batched else state[0].scale
            level = state.level_count if batched else state[0].level_count
            operand_vals = None
            if op in ("add", "sub", "mul_relin"):
                # one fresh encrypted operand per element, step-major so
                # both modes consume the sampler identically
                operand_vals = [
                    np.array(_operand_values(value_rng, slots))
                    for _ in range(batch_count)
                ]
                enc_scale = scale if op in ("add", "sub") else None
                operand_cts = [
                    encryptor.encrypt(
                        encoder.encode(
                            list(v), scale=enc_scale, level_count=level
                        )
                    )
                    for v in operand_vals
                ]
            elif op == "mul_plain":
                operand_vals = [
                    np.array(_operand_values(value_rng, slots))
                ] * batch_count
                shared_pt = encoder.encode(
                    list(operand_vals[0]), level_count=level
                )
            elif op == "matvec":
                operand_vals = [matvec_matrix] * batch_count

            if batched:
                if op == "add":
                    state = bev.add(state, _join(operand_cts))
                elif op == "sub":
                    state = bev.sub(state, _join(operand_cts))
                elif op == "mul_relin":
                    state = bev.relinearize(
                        bev.multiply(state, _join(operand_cts)), relin_key
                    )
                elif op == "mul_plain":
                    state = bev.multiply_plain(state, shared_pt)
                elif op == "rotate":
                    state = bev.rotate(state, ROTATE_STEP, galois_keys)
                elif op == "rotate_hoisted":
                    # the batched rotation shares the scalar hoisted
                    # dataflow, so this cross-checks hoisted-vs-batched
                    state = bev.rotate(state, ROTATE_STEP, galois_keys)
                elif op == "matvec":
                    state = _join(
                        [
                            linear.matvec_diagonal(
                                matvec_matrix, c, galois_keys
                            )
                            for c in state.split()
                        ]
                    )
                elif op == "conjugate":
                    state = bev.conjugate(state, galois_keys)
                elif op == "negate":
                    state = bev.negate(state)
                elif op == "rescale":
                    state = bev.rescale(state)
            else:
                if op == "add":
                    state = [ev.add(c, o) for c, o in zip(state, operand_cts)]
                elif op == "sub":
                    state = [ev.sub(c, o) for c, o in zip(state, operand_cts)]
                elif op == "mul_relin":
                    state = [
                        ev.relinearize(ev.multiply(c, o), relin_key)
                        for c, o in zip(state, operand_cts)
                    ]
                elif op == "mul_plain":
                    state = [ev.multiply_plain(c, shared_pt) for c in state]
                elif op == "rotate":
                    state = [
                        ev.rotate(c, ROTATE_STEP, galois_keys) for c in state
                    ]
                elif op == "rotate_hoisted":
                    state = [
                        ev.rotate_hoisted(c, [ROTATE_STEP], galois_keys)[0]
                        for c in state
                    ]
                elif op == "matvec":
                    state = [
                        linear.matvec_diagonal(matvec_matrix, c, galois_keys)
                        for c in state
                    ]
                elif op == "conjugate":
                    state = [ev.conjugate(c, galois_keys) for c in state]
                elif op == "negate":
                    state = [ev.negate(c) for c in state]
                elif op == "rescale":
                    state = [ev.rescale(c) for c in state]

            if rematerialize:
                if batched:
                    state = _join([_rematerialized(c) for c in state.split()])
                else:
                    state = [_rematerialized(c) for c in state]

            for b, model in enumerate(models):
                model.apply(op, operand_vals[b] if operand_vals else None)
            snapshot()

        if batched:
            plains = bev.decrypt(decryptor, state)
        else:
            plains = [decryptor.decrypt(c) for c in state]
        decoded = [encoder.decode(pt) for pt in plains]
        return {
            "steps": steps,
            "decoded": decoded,
            "expected": [m.values for m in models],
        }


def run_program_planned(
    program: List[str],
    backend_name: str,
    *,
    n: int = 64,
    k: int = 3,
    batch_count: int = 3,
    base_seed: int = 1000,
    optimize: bool = True,
) -> Dict:
    """Execute a program through the workload planner (plan mode).

    The whole program is lowered into one :class:`repro.plan.PlanGraph`
    -- ``batch_count`` independent chains, one per batch element -- and
    executed by :class:`repro.plan.PlanExecutor` (optimized: sweep
    fusion + batch packing; naive: per-node scalar).  Sampler discipline
    matches :func:`run_program` exactly: operands are encrypted in
    step-major order *during graph construction*, so the plan run sees
    byte-identical ciphertexts and its per-step node results must be
    bit-identical to the scalar trace.

    Generated programs carry their own rescale schedule, so
    ``place_rescales`` must be a structural no-op on them -- asserted
    here -- and the graph goes to the executor checker-validated but
    otherwise untouched.
    """
    from repro.plan import PlanExecutor, PlanGraph, check_plan, place_rescales
    from repro.plan.lower import matvec_graph

    value_rng = random.Random(base_seed)
    with use_backend(backend_name):
        ctx = CkksContext(toy_parameters(n=n, k=k, prime_bits=30))
        keygen = KeyGenerator(ctx, seed=base_seed + 1)
        encryptor = Encryptor(ctx, keygen.public_key(), seed=base_seed + 2)
        encoder = CkksEncoder(ctx)
        decryptor = Decryptor(ctx, keygen.secret_key)
        relin_key = keygen.relin_key()
        slots = ctx.params.slot_count
        rotate_steps = [ROTATE_STEP]
        if "matvec" in program:
            rotate_steps += list(range(1, slots))
        galois_keys = keygen.galois_keys(rotate_steps, conjugation=True)
        matvec_matrix = (
            _matvec_matrix(slots, base_seed) if "matvec" in program else None
        )
        delta = ctx.params.scale

        init_values = [
            np.array(_operand_values(value_rng, slots)) for _ in range(batch_count)
        ]
        models = [_ModelState(v) for v in init_values]
        inputs = {
            f"x{b}": encryptor.encrypt(encoder.encode(list(v)))
            for b, v in enumerate(init_values)
        }

        graph = PlanGraph()
        chains = [graph.input(f"x{b}") for b in range(batch_count)]
        # mirror of the evaluator's scale/level arithmetic, used to
        # encode add/sub operands at the chain's exact runtime scale
        level, scale = k, float(delta)
        #: per-step node ids, for the step-wise bit-identity snapshot
        step_nodes: List[List[int]] = []

        def last_prime() -> int:
            return ctx.basis_at_level(level).moduli[-1].value

        for idx, op in enumerate(program):
            operand_vals = None
            if op in ("add", "sub", "mul_relin"):
                operand_vals = [
                    np.array(_operand_values(value_rng, slots))
                    for _ in range(batch_count)
                ]
                enc_scale = scale if op in ("add", "sub") else None
                for b, v in enumerate(operand_vals):
                    name = f"op{idx}_b{b}"
                    inputs[name] = encryptor.encrypt(
                        encoder.encode(list(v), scale=enc_scale, level_count=level)
                    )
                    operand = graph.input(name, level_count=level, scale=enc_scale)
                    if op == "add":
                        chains[b] = graph.add(chains[b], operand)
                    elif op == "sub":
                        chains[b] = graph.sub(chains[b], operand)
                    else:
                        chains[b] = graph.mul_relin(chains[b], operand)
                if op == "mul_relin":
                    scale = scale * delta
            elif op == "mul_plain":
                operand_vals = [
                    np.array(_operand_values(value_rng, slots))
                ] * batch_count
                shared = graph.const(list(operand_vals[0]))
                chains = [graph.mul_plain(c, shared) for c in chains]
                scale = scale * delta
            elif op == "matvec":
                operand_vals = [matvec_matrix] * batch_count
                new_chains = []
                for c in chains:
                    _, out_node = matvec_graph(
                        matvec_matrix, graph=graph, input_node=c
                    )
                    new_chains.append(out_node)
                chains = new_chains
                scale = (scale * delta) / last_prime()
                level -= 1
            elif op in ("rotate", "rotate_hoisted"):
                chains = [graph.rotate(c, ROTATE_STEP) for c in chains]
            elif op == "conjugate":
                chains = [graph.conjugate(c) for c in chains]
            elif op == "negate":
                chains = [graph.negate(c) for c in chains]
            elif op == "rescale":
                chains = [graph.rescale(c) for c in chains]
                scale = scale / last_prime()
                level -= 1
            else:
                raise ValueError(f"unknown op {op!r}")
            for b, model in enumerate(models):
                model.apply(op, operand_vals[b] if operand_vals else None)
            step_nodes.append(list(chains))
        for b, c in enumerate(chains):
            graph.output(c, f"y{b}")

        # generated programs schedule their own rescales: placement must
        # not rewrite them
        placed = place_rescales(graph, ctx, rescale_outputs=False)
        assert len(placed) == len(graph), (
            f"place_rescales rewrote a pre-scheduled program graph "
            f"({len(graph)} -> {len(placed)} nodes) for {program}"
        )
        check_plan(graph, ctx)

        executor = PlanExecutor(
            ctx, relin_key=relin_key, galois_keys=galois_keys
        )
        run = executor.run(graph, inputs, optimize=optimize)

        steps = [
            [
                [p.residues for p in inputs[f"x{b}"].polys]
                for b in range(batch_count)
            ]
        ]
        for nodes in step_nodes:
            steps.append(
                [
                    [p.residues for p in run.results[nid].polys]
                    for nid in nodes
                ]
            )
        decoded = [
            encoder.decode(decryptor.decrypt(run.outputs[f"y{b}"]))
            for b in range(batch_count)
        ]
        return {
            "steps": steps,
            "decoded": decoded,
            "expected": [m.values for m in models],
            "run": run,
        }


def _join(cts):
    from repro.ckks.batch import CiphertextBatch

    return CiphertextBatch.from_ciphertexts(cts)


def _rematerialized(ct):
    """Rebuild a ciphertext from canonical Python-list rows (the
    materialized `.residues` snapshot), discarding any backend-native
    residency."""
    from repro.ckks.poly import Ciphertext, RnsPolynomial

    return Ciphertext(
        [
            RnsPolynomial(p.n, p.moduli, p.residues, p.is_ntt)
            for p in ct.polys
        ],
        ct.scale,
    )


def assert_differential(
    program: List[str],
    *,
    n: int = 64,
    k: int = 3,
    batch_count: int = 3,
    base_seed: int = 1000,
    atol: float = 0.05,
) -> None:
    """Run all four (backend, mode) combinations and assert the contract."""
    runs = {
        (backend, mode): run_program(
            program,
            backend,
            mode == "batched",
            n=n,
            k=k,
            batch_count=batch_count,
            base_seed=base_seed,
        )
        for backend in ("reference", "numpy")
        for mode in ("scalar", "batched")
    }
    baseline_key = ("reference", "scalar")
    baseline = runs[baseline_key]
    for key, result in runs.items():
        if key == baseline_key:
            continue
        for step, (got, want) in enumerate(
            zip(result["steps"], baseline["steps"])
        ):
            assert got == want, (
                f"{key} diverged from {baseline_key} at step {step} "
                f"(op {'init' if step == 0 else program[step - 1]!r}) "
                f"of program {program}"
            )
    for b, (got, want) in enumerate(
        zip(baseline["decoded"], baseline["expected"])
    ):
        np.testing.assert_allclose(
            got,
            want,
            atol=atol,
            err_msg=f"decode of batch element {b} drifted beyond CKKS "
            f"precision for program {program}",
        )


def assert_plan_differential(
    program: List[str],
    *,
    n: int = 64,
    k: int = 3,
    batch_count: int = 3,
    base_seed: int = 1000,
    atol: float = 0.05,
) -> None:
    """Planned execution vs the scalar trace, on both backends.

    The contract of the planner satellite: optimized plan execution
    (sweep fusion + batch packing) and naive plan execution are
    bit-identical to the sequential scalar run after *every* program
    step, on reference and numpy alike -- and the decode still matches
    the plaintext model.
    """
    kwargs = dict(n=n, k=k, batch_count=batch_count, base_seed=base_seed)
    baseline = run_program(program, "reference", False, **kwargs)
    runs = {
        (backend, "plan-opt" if optimize else "plan-naive"): run_program_planned(
            program, backend, optimize=optimize, **kwargs
        )
        for backend in ("reference", "numpy")
        for optimize in (True, False)
    }
    for key, result in runs.items():
        for step, (got, want) in enumerate(
            zip(result["steps"], baseline["steps"])
        ):
            assert got == want, (
                f"{key} diverged from the scalar trace at step {step} "
                f"(op {'init' if step == 0 else program[step - 1]!r}) "
                f"of program {program}"
            )
    for b, (got, want) in enumerate(
        zip(runs[("reference", "plan-opt")]["decoded"], baseline["expected"])
    ):
        np.testing.assert_allclose(
            got,
            want,
            atol=atol,
            err_msg=f"planned decode of batch element {b} drifted beyond "
            f"CKKS precision for program {program}",
        )
