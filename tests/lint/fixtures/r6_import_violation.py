# lint-fixture-path: src/repro/serving/fixture.py
# R6 violating fixture: a serving module reaching the evaluator directly
# (four findings expected: from-import of each evaluator class, the
# package re-export, a function-local import of the home module).

from repro.ckks.batch import BatchEvaluator, CiphertextBatch
from repro.ckks.evaluator import Evaluator
from repro.ckks import Evaluator as Scalar


def flush(context, requests):
    import repro.ckks.batch

    return repro.ckks.batch.BatchEvaluator(context).negate(requests)
