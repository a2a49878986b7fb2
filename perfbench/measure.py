"""Arithmetic of the benchmark: medians, the tail percentile, spreads, failure ratio."""
import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def tail(samples) -> dict:
    """Highest percentile of ``samples`` with at least ``TAIL_BEYOND`` samples above it.

    In ascending order the sample of 1-based rank k has n - k samples
    after it.  With n >= 4 * TAIL_BEYOND the tail is rank k = n - TAIL_BEYOND,
    at percentile 100 k / n >= 75.  A run of 5 to 25 iterations has too few
    samples for that: ten beyond would put the "tail" at or below the
    median.  Then a quarter of the samples (rounded down) stand beyond it,
    which keeps it at or above p75; the percentile and the count beyond are
    reported with it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - min(TAIL_BEYOND, n // 4)
    return {"value": float(xs[k - 1]), "percentile": 100.0 * k / n,
            "rank": k, "samples": n, "beyond": n - k}


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; a run that attempted none is an error."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed = {failed} outside [0, {attempted}]")
    return failed / attempted
