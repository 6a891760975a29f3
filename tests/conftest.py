from hypothesis import settings

# Every run draws the same examples, so two checkouts compared test for test
# see the same inputs; a test's own @settings still override these values.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
