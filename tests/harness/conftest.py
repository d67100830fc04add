"""Every sweep harness test runs under the shared leak guard (tests/leaks.py)."""

from tests.leaks import no_leaked_resources  # noqa: F401
