"""Exception types shared across the analyzer."""


class AnalysisError(Exception):
    """Base class for all analyzer errors."""


class ParseError(AnalysisError):
    """Malformed protocol or context text; carries the offending position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class UndeclaredAtom(ParseError):
    """A narration payload names an atom missing from the context."""


class UnknownAtom(AnalysisError):
    """No security level is declared for the atom and no default applies."""


class NotAKey(AnalysisError):
    """A key operation was applied to something that is not a key atom."""


class AtomAbsent(AnalysisError):
    """The target atom or variable does not occur in the message."""


class NoSource(AnalysisError):
    """An encrypted send unifies with no generated pattern (internal inconsistency)."""


class ChallengeNotReceived(AnalysisError):
    """No challenge is declared, or its step is not a receive of the verifier."""


class ChallengeAtomAbsent(AnalysisError):
    """The challenge atom does not occur in the verifier's received message."""
