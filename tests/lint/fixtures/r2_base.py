# lint-fixture-path: src/repro/lintfix/base.py
# R2 shared fixture: a miniature kernel interface the wrapper and caller
# fixtures are checked against (the rule is configured onto these module
# names).  Two primitives, and one name derived from them.

PRIMITIVES = ("ntt", "add")
DERIVED = ("ntt_one",)


class Base:
    def ntt(self, modulus, rows):
        raise NotImplementedError

    def add(self, modulus, x, y):
        raise NotImplementedError

    def ntt_one(self, modulus, row):
        return self.ntt(modulus, [row])[0]
