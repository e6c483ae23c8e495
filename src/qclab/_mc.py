"""Shared Monte Carlo confidence arithmetic."""

import math

# coverage of every Monte Carlo radius qclab reports
CONFIDENCE = 0.99


def hoeffding_radius(n_samples, value_range=1.0):
    """Two-sided Hoeffding radius at CONFIDENCE for a mean of bounded
    i.i.d. samples.

    Args:
        n_samples: number of samples in the mean.
        value_range: width of the interval each sample lives in.

    Returns:
        Radius r such that |mean - estimate| <= r with probability CONFIDENCE.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return value_range * math.sqrt(math.log(2.0 / (1.0 - CONFIDENCE)) / (2.0 * n_samples))
