"""One Hypothesis profile for the whole test suite: derandomized, so every
run draws the same examples and a failure replays as it was first seen, like
the seeded suites; no deadline, since exact rational arithmetic has no
stable per-example time on a shared host."""

from hypothesis import settings

settings.register_profile("supertrop", derandomize=True, deadline=None)
settings.load_profile("supertrop")
