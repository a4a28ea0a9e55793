from hypothesis import settings

# the same examples on every run, and no per-example time limit on a slow host
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
