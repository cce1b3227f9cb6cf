"""The exception types for data and protocol errors in this package."""


class NeoGateError(Exception):
    """A data or protocol error; its message says what went wrong.

    The command-line layer maps it to exit code 1. The two subclasses exist
    because a caller tells them apart: ``NetworkError`` marks an entry
    failed and the run goes on, and a ``promptkit.SpecMismatch``
    raised by ``PromptSpec`` on the spec flags is a usage error, exit code 2.
    """


class NetworkError(NeoGateError):
    """The endpoint stayed unreachable after all retries, or one attempt
    met a reply it could not use."""
