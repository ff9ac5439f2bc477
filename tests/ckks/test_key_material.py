"""Key material against the per-key oracle, digit for digit.

:class:`oracles.KeyGenOracle` makes every key one at a time, from the
same seeded draws in the same order; the generator makes a Galois set in
batches of as many keys as a transform chunk holds.  Each shape below
fixes how a set splits: ``n = 4096, k = 2`` (Set-A's) batches four keys,
so five steps and the conjugation key are a full batch and a partial
one; ``n = 8192, k = 4`` (Set-B's) batches one.  The public key drawn
after each call shows the sampler was left where the oracle leaves it.
"""

import pytest

from oracles import KeyGenOracle
from repro.ckks.backend import available_backends, resolve_backend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.keys import KeyGenerator

pytestmark = pytest.mark.slow  # n = 4096 and 8192

SEED = 41
EXPANSION_SEED = bytes(range(32))

#: shape name -> (parameters, Galois steps)
SHAPES = {
    "set-a-shaped": (toy_parameters(n=4096, k=2, prime_bits=30), range(1, 6)),
    "set-b-shaped": (toy_parameters(n=8192, k=4, prime_bits=30), [1]),
}

BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            name not in available_backends(), reason=f"{name} unavailable"
        ),
    )
    for name in ("reference", "numpy")
]


@pytest.fixture(
    scope="module",
    params=[(s, e) for s in SHAPES for e in (False, True)],
    ids=lambda p: f"{p[0]}-{'seeded' if p[1] else 'sampled'}",
)
def expected(request):
    """The oracle's keys, in call order, on the numpy backend."""
    shape, seeded = request.param
    params, steps = SHAPES[shape]
    ctx = CkksContext(params, backend=resolve_backend("numpy"))
    oracle = KeyGenOracle(ctx, SEED, EXPANSION_SEED if seeded else None)
    return {
        "shape": shape,
        "params": params,
        "steps": steps,
        "expansion_seed": oracle.expansion_seed,
        "secret": oracle.secret,
        "relin": oracle.relin_key(),
        "public_after_relin": oracle.public_key(),
        "galois": oracle.galois_keys(steps, conjugation=True),
        "public_after_galois": oracle.public_key(),
    }


def _rows(key):
    return [(b.residues, a.residues) for b, a in key.digits], key.seed


def _public(pk):
    return (pk.b.residues, pk.a.residues), pk.seed


@pytest.mark.parametrize("backend", BACKENDS)
def test_keys_equal_the_per_key_oracle(expected, backend):
    if backend == "reference" and expected["shape"] == "set-b-shaped" and not expected["expansion_seed"]:
        pytest.skip("5 s of pure-Python transforms; the seeded case covers the shape")
    ctx = CkksContext(expected["params"], backend=resolve_backend(backend))
    kg = KeyGenerator(ctx, seed=SEED, expansion_seed=expected["expansion_seed"])
    assert kg.secret_key.poly.residues == expected["secret"]

    assert _rows(kg.relin_key()) == expected["relin"]
    assert _public(kg.public_key()) == expected["public_after_relin"]

    keys = kg.galois_keys(expected["steps"], conjugation=True)
    assert keys.elements() == sorted(expected["galois"])
    for elt, key in expected["galois"].items():
        assert _rows(keys.key_for_element(elt)) == key, elt
    assert _public(kg.public_key()) == expected["public_after_galois"]
