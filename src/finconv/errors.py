"""Exception types shared across the package."""


class FinconvError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(FinconvError):
    """A model file or structure definition is malformed."""


class FormulaSyntaxError(FinconvError):
    """Concrete-syntax error, with 1-based line/column of the offending token."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownSymbolError(FinconvError):
    """A formula uses a symbol the signature does not declare."""


class ArityError(FinconvError):
    """A symbol is applied with the wrong number of arguments."""


class FreeVariableError(FinconvError):
    """A formula has the wrong free variables for the requested operation."""


class BudgetExceededError(FinconvError):
    """Quantifier enumeration, or a timeline's tick pairs, would exceed the evaluation budget."""


class StructureMismatchError(FinconvError):
    """Operands live on different structures."""


class NotCertifiedError(FinconvError):
    """The structure has no passing semigroup certificate."""


class MeasureError(FinconvError):
    """A weight vector is not a valid probability measure."""


class ConcentrationError(FinconvError):
    """Jump extraction precondition failed; carries the mass deficit at zero."""

    def __init__(self, deficit):
        super().__init__(
            f"measure puts too little mass at the neutral element "
            f"(deficit {deficit:.3e} below the required bound)"
        )
        self.deficit = deficit


class TimelineError(FinconvError):
    """Invalid timeline definition."""
