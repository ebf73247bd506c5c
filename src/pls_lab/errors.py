"""Exception types shared across the package."""


class PlsLabError(Exception):
    """Base class for all package-specific errors."""


class DivergenceError(PlsLabError):
    """A value that must stay finite became NaN/Inf (or blew past the loss cap)."""


class SingularSystemError(PlsLabError):
    """A linear solve hit an (anti-)resonance and has no unique solution."""


class ConsistencyError(PlsLabError):
    """Two routes that must agree (certificate vs. eigenvalues) disagreed."""


class IdxFormatError(PlsLabError):
    """Malformed IDX file. ``offset`` is the byte position of the problem;
    ``field`` is the config key of the file, when one was read for it."""

    def __init__(self, message: str, offset: int, field: str | None = None):
        super().__init__(message, offset, field)  # the constructor's args: it pickles
        self.offset = offset
        self.field = field

    def __str__(self) -> str:
        where = f"{self.field}: " if self.field else ""
        return f"{where}{self.args[0]} (at byte offset {self.offset})"


class ConfigError(PlsLabError):
    """Invalid experiment configuration. ``field`` is the offending key path."""

    def __init__(self, field: str, message: str):
        super().__init__(field, message)  # the constructor's args: it pickles
        self.field = field

    def __str__(self) -> str:
        return f"{self.field}: {self.args[1]}"
