"""Shared test settings.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, no example database is kept, and the example count is
bounded so the suite stays fast.
"""

from hypothesis import settings

settings.register_profile(
    "zeroleak", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("zeroleak")
