"""Errors shared across modules, kept in a module that imports nothing."""


class InvariantError(RuntimeError):
    """A mathematical identity the computation relies on has failed: an
    internal bug, never a refusal, so deliberately not a ValueError."""
