# lint-fixture-path: src/repro/serving/fixture.py
# R6 violating fixture: a serving module reaching the evaluator directly
# (three findings expected: from-import of the evaluator class, the
# package re-export, a function-local import of the home module; the
# lane container is data, not a door, and is not flagged).

from repro.ckks.batch import CiphertextBatch
from repro.ckks.evaluator import Evaluator, KeySwitchDigits
from repro.ckks import Evaluator as Lanes


def flush(context, requests):
    import repro.ckks.evaluator

    lane = CiphertextBatch.join(requests)
    return repro.ckks.evaluator.Evaluator(context).negate(lane)
