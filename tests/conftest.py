"""Hypothesis profiles: the default runs each property at its small
tier-1 count; ``--hypothesis-profile fuzz`` (``make fuzz``) runs the
properties that set no count of their own far longer, and a property
that sets ``max(its count, settings.default.max_examples)`` as long."""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=3000, deadline=None)
