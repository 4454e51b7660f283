"""The analytic predictor's default replay budget.

Kept apart from :mod:`repro.analysis.predict` so the CLI can show it in
``repro predict --help`` without importing the predictor at start-up.
"""

#: Default replay budget (accesses) for
#: :func:`repro.analysis.predict.predict_misses`.
DEFAULT_BUDGET = 1 << 22
