"""Full-RNS CKKS homomorphic encryption substrate.

This package is a from-scratch implementation of the CKKS scheme as used by
HEAX (Riazi et al., ASPLOS 2020), mirroring the algorithms of the paper's
Section 3 (which themselves mirror Microsoft SEAL 3.3):

* :mod:`repro.ckks.modarith` -- word-size-aware modular arithmetic
  (Barrett reduction, Algorithm 1; optimized MulRed, Algorithm 2).
* :mod:`repro.ckks.primes` -- NTT-friendly prime generation and roots of
  unity.
* :mod:`repro.ckks.ntt` -- negacyclic NTT/INTT (Algorithms 3 and 4).
* :mod:`repro.ckks.rns` -- residue number system tooling and the gadget
  decomposition used for key switching.
* :mod:`repro.ckks.poly` -- polynomials over Z_p[X]/(X^n+1) and their RNS
  form.
* :mod:`repro.ckks.encoder` -- canonical-embedding encoder with rotation-
  group slot ordering.
* :mod:`repro.ckks.context`, :mod:`repro.ckks.keys`,
  :mod:`repro.ckks.encryptor`, :mod:`repro.ckks.decryptor`,
  :mod:`repro.ckks.evaluator` -- the public scheme API: key generation,
  encryption, and the evaluation primitives HEAX accelerates
  (Mul: Algorithm 5, Rescale: Algorithm 6, KeySwitch: Algorithm 7,
  Relinearize, Rotate).

The implementation doubles as the *golden model* for the hardware simulator
in :mod:`repro.core` and as the measured software baseline for the
benchmark harness.

Polynomial kernels execute on a pluggable backend
(:mod:`repro.ckks.backend`): the pure-Python ``reference`` backend is the
bit-exact ground truth, while the vectorized ``numpy`` backend (the
default when NumPy is installed) runs NTT stages and dyadic operations
as whole-array kernels.  Select with ``set_backend``/``use_backend`` or
the ``REPRO_BACKEND`` environment variable.

Ciphertext-level parallelism -- the outermost level of HEAX's system
design (Figure 7) -- is the *lane*: :class:`CiphertextBatch`
(:mod:`repro.ckks.batch`) holds N same-shape ciphertexts as
modulus-major residue matrices, and the one :class:`Evaluator` runs
every homomorphic operation over a whole lane, a plain
:class:`Ciphertext` being the lane of one -- bit-identical, element by
element, to running each ciphertext alone.
"""

from repro.ckks.backend import (
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, CkksParameters, SET_A, SET_B, SET_C
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.decryptor import Decryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator, PublicKey, SecretKey, RelinKey, GaloisKey
from repro.ckks.poly import Ciphertext, Plaintext

__all__ = [
    "CiphertextBatch",
    "CkksContext",
    "CkksParameters",
    "CkksEncoder",
    "Encryptor",
    "Decryptor",
    "Evaluator",
    "KeyGenerator",
    "PublicKey",
    "SecretKey",
    "RelinKey",
    "GaloisKey",
    "Ciphertext",
    "Plaintext",
    "SET_A",
    "SET_B",
    "SET_C",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
]
