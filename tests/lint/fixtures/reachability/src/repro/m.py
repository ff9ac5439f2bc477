"""A planted tree for the reachability census (read with ast, never imported)."""

import ast
import sys

__all__ = ["listed"]


def used():
    pass


def only_tested():
    pass


def listed():
    pass


def by_string():
    pass


def recursive(n):
    return recursive(n - 1) if n else 0


def dispatch():
    getattr(sys.modules[__name__], "by_string")()
    return Kept().run()


class Kept:
    def run(self):
        return Other().run()

    def only_tested(self):
        pass


class Other:
    def run(self):
        pass


class Walker(ast.NodeVisitor):
    def visit_Name(self, node):
        pass
