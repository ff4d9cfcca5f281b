"""Shared test settings.

Property tests run a fixed, bounded set of examples with no time limit per
example and no example database, so the suite is deterministic and its run
time does not depend on earlier runs or on the host's speed.
"""
from hypothesis import settings

settings.register_profile("lexner", derandomize=True, deadline=None, database=None,
                          max_examples=100)
settings.load_profile("lexner")
