"""Summary rules of the verdict benchmark: percentiles, the sample-count
rule for tails, and the accounting of verdicts against attempts."""

import collections
import math

# A verdict is counted as one of these.  Only "ok" can meet the latency
# limit; the last four are failures.
OK, INCONCLUSIVE = "ok", "inconclusive"
WRONG, ERROR, REJECTED, TRANSPORT = "wrong", "error", "rejected", "transport"
FAILURES = (WRONG, ERROR, REJECTED, TRANSPORT)


def rank(n, q):
    """1-based nearest rank of percentile q among n samples."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), q) - 1]


def beyond(n, q):
    """How many of n samples lie strictly beyond the nearest-rank
    percentile q."""
    return n - rank(n, q)


def supported(n, q, need=10):
    """A percentile is reported only when at least `need` samples lie
    beyond it: p90 needs 100 samples, p99 needs 1000."""
    return beyond(n, q) >= need


def classify(got, expected, certified):
    """One verdict against the expected one.  A violation counts as right
    only when its witness was certified."""
    if got == "inconclusive":
        return INCONCLUSIVE
    if got != expected:
        return WRONG
    if got == "violated" and certified is not True:
        return WRONG
    return OK


Account = collections.namedtuple(
    "Account", "attempted failed wrong in_limit_share failed_share")


def account(samples, limit_s):
    """samples: (latency_s, outcome) pairs, one per attempted verdict.  A
    failure, refusal, timeout or inconclusive result misses the limit;
    errors, refusals, transport failures and wrong verdicts are failed."""
    attempted = len(samples)
    failed = sum(1 for _, o in samples if o in FAILURES)
    wrong = sum(1 for _, o in samples if o == WRONG)
    in_limit = sum(1 for lat, o in samples if o == OK and lat <= limit_s)
    if attempted == 0:
        return Account(0, 0, 0, 0.0, 0.0)
    return Account(attempted, failed, wrong, in_limit / attempted, failed / attempted)
