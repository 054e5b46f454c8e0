"""One Hypothesis profile for the property tests: the same examples on every
run, so no example database is needed and none is written into the checkout."""

try:
    from hypothesis import settings
except ImportError:  # the property tests then fail to collect; the rest still runs
    settings = None

if settings is not None:
    settings.register_profile("scalarfed", derandomize=True, deadline=None, database=None)
    settings.load_profile("scalarfed")
