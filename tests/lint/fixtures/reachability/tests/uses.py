from repro.m import Kept, listed, only_tested, recursive

only_tested()
Kept().only_tested()
listed()
recursive(3)
