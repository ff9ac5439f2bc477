# lint-fixture-path: src/repro/lintfix/base.py
# R2 shared fixture: a miniature kernel interface the wrapper and caller
# fixtures are checked against (the rule is configured onto these module
# names).  Three primitives, and one name derived from them.  'permute'
# stands for a kernel whose contract widened in place (one table, or a
# matrix of them, through the same two positional parameters).

PRIMITIVES = ("ntt", "add", "permute")
DERIVED = ("ntt_one",)


class Base:
    def ntt(self, modulus, rows):
        raise NotImplementedError

    def add(self, modulus, x, y):
        raise NotImplementedError

    def permute(self, stack, table):
        raise NotImplementedError

    def ntt_one(self, modulus, row):
        return self.ntt(modulus, [row])[0]
