"""Shared exception types.

Decapsulation/decryption rejection is a protocol answer, not an error: those
functions return None.  Exceptions signal operational problems (bad formats,
infeasible parameters, broken game rules) that callers must not confuse with
a rejection.
"""


class MalformedError(ValueError):
    """A wire blob or config violates its format contract."""


class InfeasibleError(RuntimeError):
    """Parameters cannot be satisfied, or an enumeration exceeds its budget.

    Distinct from a protocol reject (None): this means the computation was
    not carried out, not that it answered no.
    """


class KeyReuseError(RuntimeError):
    """A one-time key object was used to encrypt more than once."""


class GameRuleError(RuntimeError):
    """An adversary broke a security-game rule (budget overrun, barred query,
    duplicate PRF query)."""
