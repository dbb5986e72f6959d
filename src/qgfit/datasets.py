"""Bundled reference estimates of (q, beta) per time scale.

These are the published per-scale fits for pooled large-cap absolute
normalized returns; they drive the scaling regressions and serve as the
default time-scale ladder.
"""

# (dt in ticks, q, beta)
TABLE1_ROWS: tuple[tuple[int, float, float], ...] = (
    (4, 1.53, 1.78),
    (8, 1.52, 1.67),
    (16, 1.48, 1.52),
    (30, 1.46, 1.42),
    (60, 1.45, 1.33),
    (120, 1.42, 1.25),
    (240, 1.39, 1.14),
    (390, 1.37, 1.10),
    (780, 1.35, 1.03),
)

DEFAULT_DT_LADDER: tuple[int, ...] = tuple(row[0] for row in TABLE1_ROWS)

