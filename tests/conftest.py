import os
import sys

from hypothesis import HealthCheck, settings

# Leave no compiled bytecode in the checkout: ``tools/ab_bench.py`` refuses a
# checkout that holds any.  The variable reaches the Python subprocesses that
# the CLI, import and acceptance tests start.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
