"""One Hypothesis profile for the property tests: the same examples on every
run, so no example database is needed. Hypothesis still caches what it learns
from the source under its home directory, so that points at a temporary
directory removed at exit, and nothing is written into the checkout."""

import atexit
import shutil
import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests then fail to collect; the rest still runs
    settings = None

if settings is not None:
    settings.register_profile("scalarfed", derandomize=True, deadline=None, database=None)
    settings.load_profile("scalarfed")
    _home = tempfile.mkdtemp(prefix="scalarfed-hypothesis-")
    atexit.register(shutil.rmtree, _home, ignore_errors=True)
    set_hypothesis_home_dir(_home)
