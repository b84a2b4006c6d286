"""Shared test settings: property tests draw their examples from a fixed
seed, so every run of the suite tries the same cases."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
