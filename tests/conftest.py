"""Hypothesis profiles.  ``ci`` draws its examples from a fixed seed, so a
failing example shows again on rerun; select it with
``HYPOTHESIS_PROFILE=ci``.  Without that variable the default profile
runs, which draws fresh examples each run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
