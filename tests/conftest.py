"""Hypothesis profiles.

`mutants` draws and replays examples as the default profile does, but never
shrinks a failure: the kill-list runner, `python3 tests/mutants.py`, needs
only to know that a test fails, and it selects the profile with
`--hypothesis-profile=mutants`. Every other run keeps the default profile.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
