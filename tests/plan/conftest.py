"""Shared fixtures for the workload-planner tests.

The planner tests run one level deeper than the repo-wide toy context
(``k = 4``), so the chains they build keep a level to spare; the
checker tests that exercise a too-deep rejection use ``k = 3``.
"""

import pytest

from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.keys import KeyGenerator

N = 64
K = 4


@pytest.fixture(scope="session")
def plan_context():
    return CkksContext(toy_parameters(n=N, k=K, prime_bits=30))


@pytest.fixture(scope="session")
def plan_keygen(plan_context):
    return KeyGenerator(plan_context, seed=2024)


@pytest.fixture(scope="session")
def plan_relin(plan_keygen):
    return plan_keygen.relin_key()


@pytest.fixture(scope="session")
def plan_galois(plan_keygen):
    # steps 1..15 cover every matvec dimension the tests use (<= 16)
    return plan_keygen.galois_keys(range(1, 16), conjugation=True)


@pytest.fixture(scope="session")
def plan_encoder(plan_context):
    return CkksEncoder(plan_context)


@pytest.fixture(scope="session")
def plan_encryptor(plan_context, plan_keygen):
    return Encryptor(plan_context, plan_keygen.public_key(), seed=55)


@pytest.fixture(scope="session")
def plan_decryptor(plan_context, plan_keygen):
    return Decryptor(plan_context, plan_keygen.secret_key)
