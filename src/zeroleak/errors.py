"""Exception hierarchy shared by all zeroleak modules."""


class ZeroLeakError(Exception):
    """Base class for every error raised by this package."""


class InputError(ZeroLeakError):
    """The input itself is malformed; the command line exits 2 on these."""


class BadShape(InputError):
    """Input matrix is ragged, empty, or has inconsistent dimensions."""


class EmptySupport(InputError):
    """Some symbol, or the whole input, carries no probability mass."""


class NegativeMass(InputError):
    """A probability entry is negative beyond tolerance."""


class NonFiniteMass(InputError):
    """A probability entry is NaN or infinite."""


class NumericalFailure(ZeroLeakError):
    """The LP solver could not certify optimal/infeasible/unbounded."""


class Infeasible(ZeroLeakError):
    """A constraint system admits no feasible point."""


class InternalError(ZeroLeakError):
    """An invariant that should hold by construction was violated."""


class InfeasibleBoundLP(ZeroLeakError):
    """An entropy-bound LP that must be feasible was reported infeasible."""


class NotDecodable(ZeroLeakError):
    """Some (x, u) pair with positive mass has more than one candidate y."""


class IncompleteMechanism(ZeroLeakError):
    """Mechanism lacks the decode table required to build a code."""


class WrongRegime(ZeroLeakError):
    """Direct-pad coding requested outside the |Y| <= |X| regime."""


class MalformedBits(ZeroLeakError):
    """A bitstring does not parse as a valid message of the given code."""


class ParseError(InputError):
    """Input file is syntactically invalid; carries line/column context."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class StochasticityError(InputError):
    """A vector or matrix that must be stochastic is not; names the offender."""
