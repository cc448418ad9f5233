"""R006 fixture: environment escape hatches (linted as repro/spark/x.py)."""
import os


def bad():
    a = os.environ.get("REPRO_NO_CACHE")         # finding: R006 (not home)
    b = os.getenv("REPRO_UNREGISTERED_FLAG")     # finding: R006 (unregistered)
    c = os.environ["SOME_HOST_VAR"]              # finding: R006 (det package)
    return a, b, c


def suppressed():
    return os.getenv("REPRO_NO_CACHE")  # reprolint: disable=env-hatch
