# lint-fixture-path: src/repro/lintfix/wrapper.py
# R2 violating fixture, five findings expected:
#   * 'add' is never wrapped (the inherited body runs against the wrapper);
#   * 'ntt' drifts from the base signature;
#   * 'permute' keeps the names but grows a default (callers that drop the
#     argument work on this wrapper only);
#   * 'ntt_one' overrides a derived name (a second path around 'ntt');
#   * 'tally' is a public method naming no primitive.


class Wrapper:
    def ntt(self, modulus, rows, extra):
        return self.inner.ntt(modulus, rows)

    def permute(self, stack, table=None):
        return self.inner.permute(stack, table)

    def ntt_one(self, modulus, row):
        return self.inner.ntt_one(modulus, row)

    def tally(self):
        return 0
