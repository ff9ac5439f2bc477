# lint-fixture-path: src/repro/lintfix/wrapper.py
# R2 clean fixture: wraps every primitive with the exact base signature
# and leaves the derived name to the base class; 'reset' is on the
# allowed-extras list.


class Wrapper:
    def ntt(self, modulus, rows):
        return self.inner.ntt(modulus, rows)

    def add(self, modulus, x, y):
        return self.inner.add(modulus, x, y)

    def permute(self, stack, table):
        return self.inner.permute(stack, table)

    def reset(self):
        pass
