"""Exception types for the whole package.

Everything raised on purpose derives from PgwError so callers can catch one
base class at the CLI boundary.  The split mirrors where things can go wrong:
presentation loading/validation, subgroup machinery misuse, automorphism
certification, oracle disagreement.  Every class pickles, so an error raised
in an oracle worker process reaches the parent with its own type and message.
check_deadline raises OracleTimeout for the oracle's budget; the oracle and
the certificate it calls share it.
"""

import time


class PgwError(Exception):
    pass


class SizeCap(PgwError):
    """Computation would exceed the desk-scale caps (p <= 97, n <= 16, or an
    enumerated set growing past the group order, which signals an arithmetic bug)."""


class BadWeight(PgwError):
    """A relation word references a generator with index <= the relation's own
    generator, violating the weighted form."""


class BadDefinition(PgwError):
    """A defn tag does not collect to its generator."""


class ConsistencyViolation(PgwError):
    """A local consistency check failed: the two collections of the same word
    disagree.  Carries which check and the two normal forms."""

    def __init__(self, kind, indices, lhs, rhs):
        self.kind = kind
        self.indices = indices
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"{kind} check failed at {indices}: {lhs} != {rhs}")

    def __reduce__(self):
        return type(self), (self.kind, self.indices, self.lhs, self.rhs)


class NotAbelian(PgwError):
    pass


class NotNormal(PgwError):
    pass


class RelationViolated(PgwError):
    """A generator-image map does not respect a defining relation."""


class NotSurjective(PgwError):
    """Generator images fail to generate the whole group."""


class PreconditionFailed(PgwError):
    pass


class CertificationFailed(PgwError):
    """A constructed map failed verification that a proved statement guarantees.
    Indicates a bug in the arithmetic or a genuine counterexample; never swallow."""


class NoEligibleU(PgwError):
    """No element of order p in the second center outside the center."""


class CentralizerNotMaximal(PgwError):
    pass


class InnerWitnessFound(PgwError):
    """The theorem-witness automorphism turned out inner.  Would contradict the
    underlying theorem; carries the conjugating element and full state."""

    def __init__(self, t, detail=""):
        self.t = t
        self.detail = detail
        super().__init__(f"constructed witness is inner, conjugator {t}. {detail}")

    def __reduce__(self):
        return type(self), (self.t, self.detail)


class MissingDefinitions(PgwError):
    """A non-minimal generator lacks a defn tag, so the oracle cannot derive
    its image."""


class OracleTimeout(PgwError):
    pass


def check_deadline(deadline, where):
    """Raise OracleTimeout once time.monotonic() has passed the deadline; a
    deadline of None never expires."""
    if deadline is not None and time.monotonic() > deadline:
        raise OracleTimeout(f"budget exhausted {where}")


class WorkerDied(PgwError):
    """An oracle worker process ended before it reported its chunks."""


class Mismatch(PgwError):
    """Oracle cross-validation disagreement."""


class PresentationSyntaxError(PgwError):
    def __init__(self, source, line, reason):
        self.source = source
        self.line = line
        self.reason = reason
        super().__init__(f"{source}:{line}: {reason}")

    def __reduce__(self):
        return type(self), (self.source, self.line, self.reason)
