"""Reusable cross-backend differential harness.

Drives *seeded random operation sequences* (add / sub / multiply+relin /
rescale / rotate / conjugate / plain ops) through every combination of

* backend: ``reference`` vs ``numpy``, and
* **lane width**: the one :class:`~repro.ckks.evaluator.Evaluator` fed
  plain ciphertexts (the lane of one) vs
  :class:`~repro.ckks.batch.CiphertextBatch` lanes of 2, 3, ... elements,

and asserts two properties:

1. **bit-identity** -- every trace produces identical ciphertext residue
   rows after *every* step (the backends are interchangeable by
   contract, and an op over a lane is exactly N independent width-1 ops:
   stacked kernels are row-independent);
2. **correctness** -- the final decode matches a plaintext model of the
   same program within CKKS precision.

Randomness discipline: every run consumes the encryption sampler in the
*same order* (step-major: within a step, operand ciphertexts for
elements 0..N-1 are encrypted in order), so a fixed seed yields
byte-identical ciphertexts whatever the lane width -- making a
width-dependent divergence a hard failure instead of a statistical
argument.

Programs are feasibility-aware: an op is only emitted when the tracked
(size, level) state can execute it, and every ciphertext-ciphertext
multiply is immediately relinearized and, when a level remains,
rescaled -- the standard CKKS idiom, which also keeps the plaintext
model's precision honest.

The module also keeps the pre-hoisting key-switch / rotation baselines
(``keyswitch_polynomial_unhoisted``, ``rotate_unhoisted``,
``matvec_unhoisted``) the fast path is tested and benchmarked against,
``matvec_planned`` (one ciphertext through ``matvec_graph``: compile
plus one executor), and ``matvec_graph_unfused``, the rotate ->
``mul_plain`` -> ``add`` plan expansion ``matvec_graph`` lowered to
before ``linear_sweep`` -- the unfused oracle of the fused node (same
value, ``R`` flooring errors instead of one) and the planner
benchmark's baseline.  And, since PR 19,
the digit-permuting rotation dataflow the evaluator ran until then
(``apply_galois_digit_permuting``, ``linear_sweep_digit_permuting``): the
bit-exact oracle of the data-stationary one (``test_sweep_differential.py``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import numpy as np

from repro.ckks.backend import use_backend
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator, KeySwitchDigits
from repro.ckks.keys import KeyGenerator
from repro.ckks.poly import Ciphertext, RnsPolynomial

from oracles import apply_galois, rows_for

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
#: plain one -- one rotation is the one-element sweep by construction.
ROTATE_STEP = 1


# ---------------------------------------------------------------------------
# The pre-hoisting baselines: the textbook Algorithm-7 oracle.  They exist
# to be compared against (tests/ckks/test_hoisting.py, the row budgets of
# test_transform_counts.py, benchmarks/bench_keyswitch_hoisting.py), not
# shipped, so they live here and not in ``src/``.
# ---------------------------------------------------------------------------
def _floor_divide_last(ev, poly):
    """Single-accumulator Algorithm 6: divide by the last RNS prime and
    drop it (a one-block shim over the evaluator's stacked flooring)."""
    rows = poly.native_rows(ev.context.backend)
    parts = [[rows[i : i + 1] for i in range(poly.level_count)]]
    (floored,) = ev._cut(ev._floor_divide(parts, poly.moduli), 1)
    return RnsPolynomial(poly.n, poly.moduli[:-1], floored, is_ntt=True)


def keyswitch_polynomial_unhoisted(ev, target, ksk):
    """The pre-hoisting Algorithm-7 loop: one (digit, modulus) pair per
    iteration, single-row kernels throughout.  Bit-identical to
    ``Evaluator.keyswitch_polynomial``."""
    ctx = ev.context
    be = ctx.backend
    if not target.is_ntt:
        raise ValueError("key switching operates on NTT-form input")
    data_moduli = list(target.moduli)
    ext_moduli = data_moduli + [ctx.special_modulus]
    acc0 = RnsPolynomial(target.n, ext_moduli, is_ntt=True)
    acc1 = RnsPolynomial(target.n, ext_moduli, is_ntt=True)
    for i, p_i in enumerate(data_moduli):
        # line 3: back to coefficient domain for this component
        a = be.ntt_inverse(ctx.tables(p_i), target.row(i))
        d0, d1 = ksk.digit(i)
        d0_rows = rows_for(d0, ext_moduli)
        d1_rows = rows_for(d1, ext_moduli)
        for j, m_j in enumerate(ext_moduli):
            if m_j.value == p_i.value:
                b_ntt = target.row(i)  # line 9: already in NTT form
            else:
                b = be.reduce_mod(m_j, a)  # line 6: Mod(a, p_j)
                b_ntt = be.ntt_forward(ctx.tables(m_j), b)  # line 7
            # lines 11-12 / 16-17: dyadic multiply-accumulate
            acc0.set_row(
                j, be.dyadic_mac(m_j, acc0.row(j), b_ntt, d0_rows[j]), backend=be
            )
            acc1.set_row(
                j, be.dyadic_mac(m_j, acc1.row(j), b_ntt, d1_rows[j]), backend=be
            )
    # line 19: Floor by the special prime (Modulus Switch)
    return _floor_divide_last(ev, acc0), _floor_divide_last(ev, acc1)


def _apply_galois_ct_coeff(ctx, ct, galois_elt):
    """The pre-hoisting coefficient-domain automorphism of a ciphertext."""
    return Ciphertext(
        [
            ctx.to_ntt(apply_galois(ctx, ctx.from_ntt(p), galois_elt))
            for p in ct.polys
        ],
        ct.scale,
    )


def rotate_unhoisted(ev, ct, step, galois_keys):
    """The pre-hoisting rotation: coefficient-domain automorphism round
    trip plus the single-row key-switch loop."""
    if ct.size != 2:
        raise ValueError("relinearize before applying Galois automorphisms")
    ctx = ev.context
    elt = ctx.galois_element_for_step(step)
    rotated = _apply_galois_ct_coeff(ctx, ct, elt)
    f0, f1 = keyswitch_polynomial_unhoisted(
        ev, rotated.polys[1], galois_keys.key_for_element(elt)
    )
    return Ciphertext(
        [rotated.polys[0].add(f0, backend=ctx.backend), f1], ct.scale
    )


# ---------------------------------------------------------------------------
# The digit-permuting rotation dataflow (``src/`` until PR 19): per rotation,
# gather-permute every decomposed digit row and MAC it against that
# rotation's own *unpermuted* key.  ``Σ_i σ(D_i)⊙K_i`` computed as written
# -- the oracle of the data-stationary form the evaluator runs now (keys
# under ``σ⁻¹`` once, digits never moved), residue for residue.  Its key
# MAC reads the key polynomials' own rows, never a stacked key operand.
# ---------------------------------------------------------------------------
def _key_macs(ev, digits, key):
    """The DyadMult half of phase 2 against ``key``'s polynomials ->
    ``[c][j]``, accumulator ``c``'s ``N``-row block under extended
    modulus ``j``: one ``dyadic_stack_reduce`` per (column, modulus),
    each key row (``rows_for``) shared by its digit's ``N``-row block."""
    be = ev.context.backend
    ext = digits.ext_moduli
    columns = [
        [rows_for(key.digit(i)[c], ext) for i in range(len(digits.data_moduli))]
        for c in (0, 1)
    ]
    return [
        [
            be.dyadic_stack_reduce(
                m, digits.stacks[j], be.native_stack([rows[j] for rows in column])
            )
            for j, m in enumerate(ext)
        ]
        for column in columns
    ]


def permuted_digits(ev, digits, table):
    """``digits`` under an NTT-domain automorphism, in fresh stacks."""
    be = ev.context.backend
    return KeySwitchDigits(
        digits.n,
        digits.data_moduli,
        digits.ext_moduli,
        [be.permute_ntt_stack(s, table) for s in digits.stacks],
        digits.count,
    )


def apply_galois_digit_permuting(ev, ct, galois_elts, galois_keys):
    """``Evaluator.apply_galois_hoisted`` as it ran before PR 19: one
    decomposition, then per element the digit permutation, the two key
    MACs, the Modulus Switch and the gather of ``c0``."""
    ctx = ev.context
    be = ctx.backend
    lane = ev._lane(ct)
    digits = ev._decompose(lane, 1)
    outs = []
    for elt in galois_elts:
        table = ctx.galois_table_ntt(elt)
        key = galois_keys.key_for_element(elt)
        macs = _key_macs(ev, permuted_digits(ev, digits, table), key)
        f0, f1 = ev._cut(ev._floor_divide(macs, digits.ext_moduli), lane.count)
        c0 = be.permute_ntt_stack(lane.comps[0], table)
        outs.append(ev._emit(ct, lane, [be.add_rows(lane.row_moduli, c0, f0), f1]))
    return outs


def linear_sweep_digit_permuting(ev, ct, terms, galois_keys):
    """``Evaluator.linear_sweep`` as it ran before PR 19: per rotated
    term the digit permutation and the key MACs kept in the extended
    basis, the accumulators re-stacked against the plaintext rows, one
    Modulus Switch."""
    ctx = ev.context
    be = ctx.backend
    lane = ev._lane(ct)
    terms = list(terms)
    level, count = lane.level_count, lane.count
    ext_moduli = lane.moduli + [ctx.special_modulus]
    plains = [pt.poly.native_rows(be) for _, pt in terms]
    elts = [ctx.galois_element_for_step(step) for step, _ in terms]
    rotated = [d for d, elt in enumerate(elts) if elt != 1]
    unrotated = [d for d, elt in enumerate(elts) if elt == 1]

    def rows_of(which, moduli):
        return [
            be.native_stack([plains[d][i] for d in which]) for i in range(len(moduli))
        ]

    def weighted(moduli, parts, rows):
        return [
            be.dyadic_stack_reduce(
                m, be.native_stack([r for part in parts for r in part[i]]), rows[i]
            )
            for i, m in enumerate(moduli)
        ]

    def in_q(mats, which):
        parts = [ev._blocks(mat, level, count) for mat in mats]
        blocks = weighted(lane.moduli, parts, rows_of(which, lane.moduli))
        return be.from_rows([row for block in blocks for row in block])

    digits = ev._decompose(lane, 1) if rotated else None
    c0s, accumulators = [], []
    for elt in elts:
        if elt == 1:
            c0s.append(lane.comps[0])
            continue
        table = ctx.galois_table_ntt(elt)
        key = galois_keys.key_for_element(elt)
        accumulators.append(_key_macs(ev, permuted_digits(ev, digits, table), key))
        c0s.append(be.permute_ntt_stack(lane.comps[0], table))
    comps = [in_q(c0s, range(len(terms)))]
    if unrotated:
        comps.append(in_q([lane.comps[1]] * len(unrotated), unrotated))
    if rotated:
        rows = rows_of(rotated, ext_moduli)
        sums = [
            weighted(ext_moduli, [acc[c] for acc in accumulators], rows)
            for c in (0, 1)
        ]
        floored = ev._cut(ev._floor_divide(sums, ext_moduli), count)
        comps = [
            be.add_rows(lane.row_moduli, comp, f) for comp, f in zip(comps, floored)
        ] + floored[len(comps):]
    return ev._emit(ct, lane, comps, scale=lane.scale * terms[0][1].scale)


def matvec_unhoisted(ctx, matrix, ct, galois_keys):
    """The pre-hoisting diagonal matvec: one ``rotate_unhoisted`` (its
    own coefficient-domain round trip and key-switch decomposition) per
    nonzero diagonal -- the baseline ``matvec_planned`` is costed and
    checked against."""
    ev, enc = Evaluator(ctx), CkksEncoder(ctx)
    matrix = np.asarray(matrix, dtype=np.float64)
    dim = matrix.shape[0]
    idx = np.arange(dim)
    diags = matrix[idx[None, :], (idx[None, :] + idx[:, None]) % dim]
    acc = None
    for d in range(dim):
        if not diags[d].any():
            continue
        rotated = ct if d == 0 else rotate_unhoisted(ev, ct, d, galois_keys)
        term = ev.multiply_plain(
            rotated, enc.encode(list(diags[d]), level_count=ct.level_count)
        )
        acc = term if acc is None else ev.add(acc, term)
    return ev.rescale(acc)


def matvec_planned(ctx, matrix, ct, galois_keys):
    """``y = M x`` for one live ciphertext: ``matvec_graph`` on an input
    typed from ``ct``'s level and scale, ``compile_plan``, one
    ``PlanExecutor`` run."""
    from repro.plan import PlanExecutor, PlanGraph, compile_plan
    from repro.plan.lower import matvec_graph

    graph = PlanGraph()
    x = graph.input("x", level_count=ct.level_count, scale=ct.scale)
    _, y = matvec_graph(matrix, graph=graph, input_node=x)
    graph.output(y, "y")
    plan = compile_plan(graph, ctx)
    run = PlanExecutor(ctx, galois_keys=galois_keys).run(plan, {"x": ct})
    return run.outputs["y"]


def matvec_graph_unfused(matrix, graph=None, input_node=None):
    """``y = M x`` as the unfused plan: one ``rotate`` per nonzero
    diagonal (a fusable sweep), one ``mul_plain`` each, an ``add`` chain
    and the rescale -- every rotation floored by the special prime on
    its own.  Returns ``(graph, output_node_id)`` like ``matvec_graph``."""
    from repro.plan import PlanGraph

    matrix = np.asarray(matrix, dtype=np.float64)
    dim = matrix.shape[0]
    own_graph = graph is None
    if own_graph:
        graph = PlanGraph()
        input_node = graph.input("x")
    idx = np.arange(dim)
    diags = matrix[idx[None, :], (idx[None, :] + idx[:, None]) % dim]
    acc = None
    for d in [d for d in range(dim) if diags[d].any()] or [0]:
        rotated = input_node if d == 0 else graph.rotate(input_node, d)
        term = graph.mul_plain(rotated, graph.const(list(diags[d])))
        acc = term if acc is None else graph.add(acc, term)
    out = graph.rescale(acc)
    if own_graph:
        graph.output(out, "y")
    return graph, out


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
    precision floor (so the final decode remains meaningful).  A program
    carries its own rescales, so no multiply takes a product-scale chain
    (placement would rescale it first).
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
        if op in ("mul_relin", "matvec", "mul_plain") and s >= 1.5 * scale_bits:
            continue
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
        if op in ("add", "add_plain"):
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
    lane_width: int,
    *,
    n: int = 64,
    k: int = 3,
    batch_count: int = 3,
    base_seed: int = 1000,
    rematerialize: bool = False,
) -> Dict:
    """Execute a program on one backend at one lane width.

    The ``batch_count`` elements run through the one evaluator in lanes
    of ``lane_width``: at width 1 every element is a plain
    :class:`Ciphertext` (the lane of one); otherwise the elements are
    joined ``lane_width`` at a time (the last lane may be narrower) into
    :class:`CiphertextBatch` operands and split again after the op.

    Returns per-step canonical residue rows for every element, the
    final decoded slot vectors, and the plaintext-model expectation.

    With ``rematerialize=True`` every ciphertext is torn down to
    canonical Python lists and rebuilt after each step, forcing the
    list-interchange path; results must stay bit-identical to the
    backend-resident run (the residency property test).
    """
    value_rng = random.Random(base_seed)  # same value stream in every run

    def lanes(cts):
        if lane_width == 1:
            return cts
        return [
            CiphertextBatch.join(cts[i : i + lane_width])
            for i in range(0, len(cts), lane_width)
        ]

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
        ev = Evaluator(ctx)

        init_values = [
            np.array(_operand_values(value_rng, slots)) for _ in range(batch_count)
        ]
        models = [_ModelState(v) for v in init_values]
        state = [encryptor.encrypt(encoder.encode(list(v))) for v in init_values]

        steps: List[List] = []

        def snapshot():
            steps.append([[p.residues for p in ct.polys] for ct in state])

        snapshot()
        for op in program:
            scale, level = state[0].scale, state[0].level_count
            operand_vals = None
            if op in ("add", "sub", "mul_relin"):
                # one fresh encrypted operand per element, step-major so
                # every lane width consumes the sampler identically
                operand_vals = [
                    np.array(_operand_values(value_rng, slots))
                    for _ in range(batch_count)
                ]
                enc_scale = scale if op in ("add", "sub") else None
                operands = lanes(
                    [
                        encryptor.encrypt(
                            encoder.encode(
                                list(v), scale=enc_scale, level_count=level
                            )
                        )
                        for v in operand_vals
                    ]
                )
            elif op in ("mul_plain", "add_plain"):
                # one plaintext shared by every element; add_plain (never
                # generated, only listed explicitly) must match the scale
                operand_vals = [
                    np.array(_operand_values(value_rng, slots))
                ] * batch_count
                shared_pt = encoder.encode(
                    list(operand_vals[0]),
                    scale=scale if op == "add_plain" else None,
                    level_count=level,
                )
            elif op == "matvec":
                operand_vals = [matvec_matrix] * batch_count

            xs = lanes(state)
            if op == "add":
                out = [ev.add(x, o) for x, o in zip(xs, operands)]
            elif op == "sub":
                out = [ev.sub(x, o) for x, o in zip(xs, operands)]
            elif op == "mul_relin":
                out = [
                    ev.relinearize(ev.multiply(x, o), relin_key)
                    for x, o in zip(xs, operands)
                ]
            elif op == "mul_plain":
                out = [ev.multiply_plain(x, shared_pt) for x in xs]
            elif op == "add_plain":
                out = [ev.add_plain(x, shared_pt) for x in xs]
            elif op == "rotate":
                out = [ev.rotate(x, ROTATE_STEP, galois_keys) for x in xs]
            elif op == "rotate_hoisted":
                out = [
                    ev.rotate_hoisted(x, [ROTATE_STEP], galois_keys)[0]
                    for x in xs
                ]
            elif op == "matvec":
                out = [
                    matvec_planned(ctx, matvec_matrix, c, galois_keys)
                    for c in state
                ]
            elif op == "conjugate":
                out = [ev.conjugate(x, galois_keys) for x in xs]
            elif op == "negate":
                out = [ev.multiply_integers(x, [-1] * ev._lane(x).count) for x in xs]
            elif op == "rescale":
                out = [ev.rescale(x) for x in xs]
            else:
                raise ValueError(f"unknown op {op!r}")
            state = [
                ct
                for x in out
                for ct in (x.split() if isinstance(x, CiphertextBatch) else [x])
            ]

            if rematerialize:
                state = [_rematerialized(c) for c in state]

            for b, model in enumerate(models):
                model.apply(op, operand_vals[b] if operand_vals else None)
            snapshot()

        decoded = [encoder.decode(decryptor.decrypt(c)) for c in state]
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
                        chains[b] = graph.add(chains[b], graph.negate(operand))
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
        types = check_plan(graph, ctx)

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
            # the planner's typed noise estimate of each output
            "bounds": [types[graph.outputs[f"y{b}"]][0] for b in range(batch_count)],
        }


def _rematerialized(ct):
    """Rebuild a ciphertext from canonical Python-list rows (the
    materialized `.residues` snapshot), discarding any backend-native
    residency."""
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
    widths=None,
) -> None:
    """Run every (backend, lane width) combination and assert the contract.

    Default widths: 1 (plain ciphertexts), 2 (a ragged last lane, or a
    one-element :class:`CiphertextBatch` when ``batch_count == 1``) and
    the whole ``batch_count`` as one lane.
    """
    if widths is None:
        widths = sorted({1, 2, batch_count})
    runs = {
        (backend, width): run_program(
            program,
            backend,
            width,
            n=n,
            k=k,
            batch_count=batch_count,
            base_seed=base_seed,
        )
        for backend in ("reference", "numpy")
        for width in widths
    }
    baseline_key = ("reference", 1)
    baseline = runs[baseline_key]
    for key, result in runs.items():
        if key == baseline_key:
            continue
        for step, (got, want) in enumerate(
            zip(result["steps"], baseline["steps"])
        ):
            assert got == want, (
                f"(backend, lane width) {key} diverged from {baseline_key} "
                f"at step {step} "
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
    baseline = run_program(program, "reference", 1, **kwargs)
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
