"""One Hypothesis policy for the suite: no per-example deadline.

Exact arithmetic makes an example's time follow the size of its draw, so
a deadline would fail slow draws rather than wrong ones.  Each test keeps
its own ``max_examples``; a test that wants a deadline sets it on its own
``@settings`` (``test_cli_fuzz.test_any_integer_option_meets_a_budget``).
"""

from hypothesis import settings

settings.register_profile("deltasvp", deadline=None)
settings.load_profile("deltasvp")
