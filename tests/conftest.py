"""Session settings for the property tests.

One hypothesis profile, loaded for every run: derandomized, so each run
draws the same cases; no deadline, because a loaded machine can slow any
single example; no example database, so runs leave no files behind; and
a modest example count, to keep the suite quick.
"""

from hypothesis import settings

settings.register_profile(
    "cairoreg", derandomize=True, deadline=None, database=None, max_examples=40
)
settings.load_profile("cairoreg")
