"""Errors shared across modules, kept in a module that imports nothing.

Every raise is one of three kinds:
- Refusal: a documented limit, or malformed input that can reach the
  check from the CLI; each has a row in the README refusal table (exit 2).
- Library misuse, an argument no CLI path produces (Character.__mul__
  across tori, a ModuleAction of matrices that do not commute,
  is_root_of_unity(0)): ValueError.
- Broken invariant, a check that fails only on a bug: InvariantError.
  The CLI prints it with its traceback and exits 70, as for any exception
  but Refusal and presfile.ParseError (unreadable input, exit 1).
"""


class Refusal(ValueError):
    """A documented limit or malformed CLI-reachable input (exit 2)."""


class InvariantError(RuntimeError):
    """A mathematical identity the computation relies on has failed: an
    internal bug, never a refusal, so deliberately not a ValueError."""
