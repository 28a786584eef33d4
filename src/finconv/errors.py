"""Exception types shared across the package."""


class FinconvError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(FinconvError):
    """A model file or structure definition is malformed."""


class _TokenError(FinconvError):
    """An error at a formula token, with the token's 1-based line/column
    kept and appended to the message; a tree built without text has none."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class FormulaSyntaxError(_TokenError):
    """Concrete-syntax error."""


class UnknownSymbolError(_TokenError):
    """A formula uses a symbol the signature does not declare."""


class ArityError(_TokenError):
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
