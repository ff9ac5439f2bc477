# lint-fixture-path: src/repro/lintcall/pipeline.py
# R2 caller-side clean fixture: the primitive on the matrix the caller
# already holds; a same-named method on something that is not a backend
# (polynomials have their own 'add', 'negate', ...) is not a kernel call.


def transform(ctx, modulus, poly):
    be = ctx.backend
    rows = be.ntt(modulus, poly.rows)
    return be.add(modulus, rows, rows), poly.ntt_one(modulus)
