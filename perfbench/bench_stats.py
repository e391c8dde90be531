"""Arithmetic the benchmark reports with: the tail rule and scheduled work."""

import math

TAIL_BEYOND = 10  # a tail percentile is reported only with this many samples beyond it


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns ``(percentile, value)``, where ``value`` is the sample with exactly
    ``beyond`` samples ranked above it and ``percentile`` is its rank as a
    share of the sample count (so 100 samples give p90). A tail must lie above
    the median, so with ``2 * beyond`` or fewer samples the result is None.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * beyond:
        return None
    return 100.0 * (n - beyond) / n, float(ordered[n - beyond - 1])


def split_sizes(n: int, ratios) -> tuple[int, ...]:
    """Train/validation/test sizes of a balanced binary file of ``n`` records.

    Splits are stratified, so each class is divided by largest remainder on
    its own and the per-class counts add up.
    """
    totals = [0] * len(ratios)
    for class_n in (n // 2, n - n // 2):
        exact = [class_n * r for r in ratios]
        counts = [math.floor(e) for e in exact]
        order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
        for i in order[: class_n - sum(counts)]:
            counts[i] += 1
        totals = [t + c for t, c in zip(totals, counts)]
    return tuple(totals)


def scheduled_train_examples(train_sizes: dict[str, int], epochs: int) -> int:
    """Examples a balanced-oversampling run is scheduled to process.

    Every task is drawn up to the largest train split once per epoch, so an
    epoch holds tasks x largest split examples whatever the batch size.
    """
    if not train_sizes:
        return 0
    return epochs * len(train_sizes) * max(train_sizes.values())
