"""``Evaluator.linear_sweep``: a diagonal matvec as ONE key-switched
linear combination -- one decomposition, one Modulus Switch.

What is promised, and pinned here:

* **the value** -- equal, residue for residue, to an exact big-integer
  oracle of the new dataflow (CRT-compose every key-switch accumulator
  into ``Z_{QP}``, weigh and sum there, floor by the special prime
  *once*), for step sets with and without step 0, at the top level and
  after a consumed level;
* **bit-identity where it has meaning** -- reference ≡ numpy, a lane of
  three ≡ three lanes of one, ``optimize=False`` ≡ ``optimize=True``;
* **not the unfused bits** -- against the rotate -> ``mul_plain`` ->
  ``add`` composition the result is the same value with one flooring
  error instead of ``R``: the decode error must not be worse;
* the basis discipline of its plaintexts (key basis in, data basis
  rejected, and the other way round for ``multiply_plain``), and the
  one-scale rule in ``check_plan``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks.backend import available_backends, use_backend
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.poly import Ciphertext, RnsPolynomial
from repro.ckks.rns import RnsBasis
from repro.plan import (
    PlanExecutor,
    PlanGraph,
    PlanValidationError,
    check_plan,
    compile_plan,
    matvec_graph,
    modeled_replay,
)

from differential import matvec_graph_unfused
from oracles import galois_map, rows_for

BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            name not in available_backends(), reason=f"{name} unavailable"
        ),
    )
    for name in ("reference", "numpy")
]

N, K = 64, 3
SLOTS = N // 2
KEYED_STEPS = list(range(1, 16))


def _stack(backend_name, n=N, k=K, seed=2718, steps=KEYED_STEPS):
    with use_backend(backend_name):
        ctx = CkksContext(toy_parameters(n=n, k=k, prime_bits=30))
        keygen = KeyGenerator(ctx, seed=seed)
        return {
            "backend": backend_name,
            "ctx": ctx,
            "encoder": CkksEncoder(ctx),
            "encryptor": Encryptor(ctx, keygen.public_key(), seed=seed + 1),
            "decryptor": Decryptor(ctx, keygen.secret_key),
            "evaluator": Evaluator(ctx),
            "relin": keygen.relin_key(),
            "galois": keygen.galois_keys(steps),
        }


@pytest.fixture(scope="module", params=BACKENDS)
def stack(request):
    return _stack(request.param)


def rows(ct):
    return [p.residues for p in ct.polys]


def _encrypt(stack, seed):
    rng = np.random.default_rng(seed)
    return stack["encryptor"].encrypt(
        stack["encoder"].encode(list(rng.uniform(-1, 1, SLOTS)))
    )


def _terms(stack, steps, level, seed):
    """``(step, extended-basis plaintext)`` per step, seeded values."""
    rng = np.random.default_rng(seed)
    return [
        (
            step,
            stack["encoder"].encode(
                list(rng.uniform(-1, 1, SLOTS)), level_count=level, extended=True
            ),
        )
        for step in steps
    ]


# ---------------------------------------------------------------------------
# the exact oracle: Python integers, coefficient domain, no RNS shortcuts
# ---------------------------------------------------------------------------
def _negacyclic(a, b, modulus):
    """``a * b`` in ``Z_modulus[X]/(X^n + 1)``, schoolbook."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j < n:
                    out[i + j] += x * y
                else:
                    out[i + j - n] -= x * y
    return [v % modulus for v in out]


def _automorphism(ctx, coeffs, elt):
    """``a(X) -> a(X^g)`` on signed integer coefficients."""
    out = [0] * len(coeffs)
    for value, (dest, flip) in zip(coeffs, galois_map(ctx.n, elt)):
        out[dest] = -value if flip else value
    return out


def _composed(ctx, poly, moduli):
    """An NTT-form RNS polynomial's rows under ``moduli`` as one integer
    polynomial in ``[0, prod moduli)``."""
    coeff = ctx.from_ntt(RnsPolynomial(poly.n, moduli, rows_for(poly, moduli), True))
    return RnsBasis(moduli).compose_rows(coeff.residues)


def oracle_linear_sweep(ctx, ct, terms, galois_keys):
    """``Σ pt_d ⊙ rot_d(ct)`` with one floor, in exact integers.

    Returns the two result polynomials as coefficient-domain residue
    rows over the ciphertext's basis.
    """
    data = list(ct.moduli)
    ext = data + [ctx.special_modulus]
    q, special = RnsBasis(data).product, ctx.special_modulus.value
    qp = q * special
    c0, c1 = (_composed(ctx, p, data) for p in ct.polys)
    # the gadget digits of c1: its residue polynomials, as integers
    digits = ctx.from_ntt(ct.polys[1]).residues
    wide = [0] * ct.n, [0] * ct.n  # the two accumulators over Z_{QP}
    narrow = [0] * ct.n, [0] * ct.n  # what never leaves Z_Q
    for step, pt in terms:
        weight = RnsBasis(ext).compose_centered_rows(ctx.from_ntt(pt.poly).residues)
        elt = ctx.galois_element_for_step(step)
        if elt == 1:
            moved = (c0, c1)
        else:
            moved = (_automorphism(ctx, c0, elt), [0] * ct.n)
            key = galois_keys.key_for_element(elt)
            for i, digit in enumerate(digits):
                rotated = _automorphism(ctx, digit, elt)
                for c, column in enumerate(key.digit(i)):
                    mac = _negacyclic(rotated, _composed(ctx, column, ext), qp)
                    term = _negacyclic(weight, mac, qp)
                    wide[c][:] = [(a + b) % qp for a, b in zip(wide[c], term)]
        for c in (0, 1):
            term = _negacyclic(weight, moved[c], q)
            narrow[c][:] = [(a + b) % q for a, b in zip(narrow[c], term)]
    return [
        [[(w // special + v) % m.value for w, v in zip(wide[c], narrow[c])] for m in data]
        for c in (0, 1)
    ]


def _coefficient_rows(ctx, ct):
    return [ctx.from_ntt(p).residues for p in ct.polys]


class TestExactOracle:
    @pytest.mark.parametrize(
        "steps",
        [[0, 1, 2, 3], [1, 4], [0], [5], [0, 2, 7, 9, 15]],
        ids=lambda s: "steps-" + "-".join(map(str, s)),
    )
    def test_top_level(self, stack, steps):
        ctx, ev = stack["ctx"], stack["evaluator"]
        with use_backend(stack["backend"]):
            ct = _encrypt(stack, seed=sum(steps))
            terms = _terms(stack, steps, ct.level_count, seed=11)
            out = ev.linear_sweep(ct, terms, stack["galois"])
            assert out.level_count == ct.level_count
            assert out.scale == ct.scale * ctx.params.scale
            assert _coefficient_rows(ctx, out) == oracle_linear_sweep(
                ctx, ct, terms, stack["galois"]
            )

    def test_random_step_sets(self, stack):
        ctx, ev = stack["ctx"], stack["evaluator"]
        rng = np.random.default_rng(5)
        with use_backend(stack["backend"]):
            for trial in range(3):
                size = int(rng.integers(1, 5))
                steps = sorted(int(s) for s in rng.choice(16, size=size, replace=False))
                ct = _encrypt(stack, seed=100 + trial)
                terms = _terms(stack, steps, ct.level_count, seed=200 + trial)
                out = ev.linear_sweep(ct, terms, stack["galois"])
                assert _coefficient_rows(ctx, out) == oracle_linear_sweep(
                    ctx, ct, terms, stack["galois"]
                ), steps

    def test_after_a_consumed_level(self):
        """``mul_relin -> rescale -> sweep``: the keys restrict to the
        level's basis and the plaintexts encode over *its* key basis."""
        for name in ("reference", "numpy"):
            if name not in available_backends():
                continue
            s = _stack(name, k=4)
            ctx, ev = s["ctx"], s["evaluator"]
            with use_backend(name):
                a, b = _encrypt(s, 1), _encrypt(s, 2)
                ct = ev.rescale(ev.multiply_relin(a, b, s["relin"]))
                assert ct.level_count == 3
                terms = _terms(s, [0, 1, 3], ct.level_count, seed=9)
                out = ev.linear_sweep(ct, terms, s["galois"])
                assert _coefficient_rows(ctx, out) == oracle_linear_sweep(
                    ctx, ct, terms, s["galois"]
                )


def _matvec_setup(stack, dim, seed, zero_diagonals=()):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-1, 1, (dim, dim)) / np.sqrt(dim)
    i = np.arange(dim)
    for d in zero_diagonals:
        matrix[i, (i + d) % dim] = 0.0
    x = rng.uniform(-1, 1, dim)
    packed = np.zeros(stack["encoder"].slot_count)
    packed[: 2 * dim] = np.resize(x, 2 * dim)
    ct = stack["encryptor"].encrypt(stack["encoder"].encode(packed))
    return matrix, x, ct


@pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy unavailable"
)
class TestBitIdentity:
    def test_reference_equals_numpy(self):
        traces = {}
        for name in ("reference", "numpy"):
            s = _stack(name)
            with use_backend(name):
                ct = _encrypt(s, seed=3)
                terms = _terms(s, [0, 1, 2, 6, 11], ct.level_count, seed=4)
                traces[name] = rows(s["evaluator"].linear_sweep(ct, terms, s["galois"]))
        assert traces["reference"] == traces["numpy"]

    def test_lane_of_three_equals_three_lanes_of_one(self, stack):
        ev = stack["evaluator"]
        with use_backend(stack["backend"]):
            cts = [_encrypt(stack, seed) for seed in (21, 22, 23)]
            terms = _terms(stack, [0, 2, 3, 8], cts[0].level_count, seed=24)
            lane = ev.linear_sweep(CiphertextBatch.join(cts), terms, stack["galois"])
            alone = [ev.linear_sweep(c, terms, stack["galois"]) for c in cts]
            assert [rows(c) for c in lane.split()] == [rows(c) for c in alone]

    def test_naive_equals_optimized_and_lanes_pack_by_terms(self, stack):
        """Two sweeps over the same const ids pack into one lane; the
        naive executor runs the same node through the same call."""
        ctx = stack["ctx"]
        with use_backend(stack["backend"]):
            g = PlanGraph()
            consts = [(d, g.const([0.1 * (d + 1)] * 4)) for d in (0, 1, 5)]
            for name in ("a", "b"):
                g.output(g.linear_sweep(g.input(name), consts), f"y_{name}")
            plan = compile_plan(g, ctx, rescale_outputs=False)
            inputs = {"a": _encrypt(stack, 31), "b": _encrypt(stack, 32)}
            ex = PlanExecutor(ctx, galois_keys=stack["galois"])
            fast = ex.run(plan, inputs, optimize=True)
            slow = ex.run(plan, inputs, optimize=False)
            for name in plan.outputs:
                assert rows(fast.outputs[name]) == rows(slow.outputs[name])
            assert (fast.lanes, fast.packed_ops) == (1, 2)
            assert (slow.lanes, slow.scalar_ops) == (0, len(slow.steps))
            # billed as sweeps in both modes: one per node, two rotations each
            assert fast.sweeps == slow.sweeps == 2
            assert fast.fused_rotations == slow.fused_rotations == 4


class TestAgainstTheUnfusedComposition:
    DIM = 16

    def _errors(self, stack, seed):
        ctx = stack["ctx"]
        matrix, x, ct = _matvec_setup(stack, self.DIM, seed)
        ex = PlanExecutor(ctx, galois_keys=stack["galois"])
        errors = []
        for lower in (matvec_graph, matvec_graph_unfused):
            plan = compile_plan(lower(matrix)[0], ctx)
            run = ex.run(plan, {"x": ct})
            y = run.outputs["y"]
            got = stack["encoder"].decode(stack["decryptor"].decrypt(y))
            errors.append(np.abs(got.real[: self.DIM] - matrix @ x).max())
            shape = (y.level_count, y.scale)
            errors.append(shape)
            errors.append(rows(y))
        return errors

    def test_same_shape_not_the_same_bits_and_no_worse_a_value(self, stack):
        fused_total = unfused_total = 0.0
        with use_backend(stack["backend"]):
            for seed in range(12):
                fused, f_shape, f_rows, unfused, u_shape, u_rows = self._errors(
                    stack, seed
                )
                assert f_shape == u_shape
                # one rounding instead of fifteen is another ciphertext
                assert f_rows != u_rows
                assert fused < 1e-4 and unfused < 1e-4
                fused_total += fused
                unfused_total += unfused
        # each flooring error of the unfused sum is amplified by its
        # plaintext; summed over the seeds the one-floor value is closer
        assert fused_total <= unfused_total

    def test_modeled_fpga_time_shows_the_same_saving(self, stack):
        """One Modulus-Switch tail instead of fifteen in the hw model too."""
        ctx = stack["ctx"]
        with use_backend(stack["backend"]):
            matrix, _, ct = _matvec_setup(stack, self.DIM, seed=1)
            ex = PlanExecutor(ctx, galois_keys=stack["galois"])
            cycles = {}
            for lower in (matvec_graph, matvec_graph_unfused):
                run = ex.run(compile_plan(lower(matrix)[0], ctx), {"x": ct})
                cycles[lower] = modeled_replay(run, ctx, "Set-B").cycles
                if lower is matvec_graph:
                    assert run.step_count == 2
                    assert (run.sweeps, run.fused_rotations) == (1, self.DIM - 1)
        assert cycles[matvec_graph] < cycles[matvec_graph_unfused]


@pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy unavailable"
)
def test_more_than_32_rotated_terms():
    """34 rotated terms sum 34 accumulators per modulus: beyond the
    numpy backend's one-pass digit bound, same bits as reference."""
    steps = list(range(35))
    outs = {}
    for name in ("reference", "numpy"):
        s = _stack(name, n=128, steps=steps[1:])
        enc = s["encoder"]
        with use_backend(name):
            rng = np.random.default_rng(8)
            x = rng.uniform(-1, 1, enc.slot_count)
            weights = rng.uniform(-1, 1, (len(steps), enc.slot_count)) / 6
            ct = s["encryptor"].encrypt(enc.encode(list(x)))
            terms = [(d, enc.encode(list(weights[d]), extended=True)) for d in steps]
            y = s["evaluator"].linear_sweep(ct, terms, s["galois"])
            outs[name] = rows(y)
            got = enc.decode(s["decryptor"].decrypt(y)).real
        want = sum(weights[d] * np.roll(x, -d) for d in steps)
        np.testing.assert_allclose(got, want, atol=1e-4)
    assert outs["reference"] == outs["numpy"]


class TestOperandDiscipline:
    def test_plaintext_bases_do_not_mix(self, stack):
        ev, enc = stack["evaluator"], stack["encoder"]
        with use_backend(stack["backend"]):
            ct = _encrypt(stack, 41)
            wide = enc.encode([0.5], extended=True)
            narrow = enc.encode([0.5])
            assert wide.poly.level_count == narrow.poly.level_count + 1
            # the data-basis rows of the two encodings are the same residues
            assert wide.poly.residues[:-1] == narrow.poly.residues
            with pytest.raises(ValueError, match="mismatch"):
                ev.multiply_plain(ct, wide)
            with pytest.raises(ValueError, match="key basis"):
                ev.linear_sweep(ct, [(1, narrow)], stack["galois"])
            lower = enc.encode([0.5], level_count=ct.level_count - 1, extended=True)
            with pytest.raises(ValueError, match="key basis"):
                ev.linear_sweep(ct, [(1, lower)], stack["galois"])

    def test_rejects_mixed_scales_empty_terms_and_unfit_operands(self, stack):
        ev, enc = stack["evaluator"], stack["encoder"]
        with use_backend(stack["backend"]):
            ct = _encrypt(stack, 42)
            a = enc.encode([0.5], extended=True)
            b = enc.encode([0.5], scale=2.0**20, extended=True)
            with pytest.raises(ValueError, match="scale mismatch"):
                ev.linear_sweep(ct, [(0, a), (1, b)], stack["galois"])
            with pytest.raises(ValueError, match="at least one term"):
                ev.linear_sweep(ct, [], stack["galois"])
            with pytest.raises(ValueError, match="relinearize"):
                ev.linear_sweep(ev.multiply(ct, ct), [(0, a)], stack["galois"])
            coeff = Ciphertext([stack["ctx"].from_ntt(p) for p in ct.polys], ct.scale)
            with pytest.raises(ValueError, match="NTT-form"):
                ev.linear_sweep(coeff, [(0, a)], stack["galois"])

    def test_check_plan_rejects_mismatched_term_scales(self, stack):
        g = PlanGraph()
        x = g.input("x")
        g.output(
            g.linear_sweep(
                x, [(0, g.const([1.0])), (1, g.const([1.0], scale=2.0**20))]
            ),
            "y",
        )
        with pytest.raises(PlanValidationError, match="scales differ"):
            check_plan(g, stack["ctx"])

    def test_step_zero_needs_no_keys_and_no_decomposition(self, stack):
        """An unrotated-only sweep is a plaintext product: same bits as
        ``multiply_plain`` with the data-basis encoding, no Galois keys."""
        ev, enc = stack["evaluator"], stack["encoder"]
        with use_backend(stack["backend"]):
            ct = _encrypt(stack, 43)
            values = list(np.linspace(-1, 1, SLOTS))
            fused = ev.linear_sweep(ct, [(0, enc.encode(values, extended=True))], None)
            assert rows(fused) == rows(ev.multiply_plain(ct, enc.encode(values)))
