"""Shared test configuration: a deterministic hypothesis profile.

The explain phase is left out: it reruns each shrunk failure many times
to say which parts of it matter, which slows every failure report, and it
changes no example that runs.
"""

from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "gainlab",
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
)
settings.load_profile("gainlab")
