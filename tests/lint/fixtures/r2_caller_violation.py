# lint-fixture-path: src/repro/lintcall/pipeline.py
# R2 caller-side violating fixture, three findings expected: a derived
# kernel called on a backend object, however the object is spelled --
# the conventional local, an attribute chain, a name bound from the
# registry.
from repro.ckks.backend import get_backend


def transform(ctx, modulus, poly):
    be = ctx.backend
    first = be.ntt_one(modulus, poly.row(0))
    second = ctx.backend.ntt_one(modulus, poly.row(1))
    kernels = get_backend()
    return first, second, kernels.ntt_one(modulus, poly.row(2))
