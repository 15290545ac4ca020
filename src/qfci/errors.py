"""Exception types shared across the package."""


class QfciError(Exception):
    """Base class for all package-specific errors."""


class ParseError(QfciError, ValueError):
    """Malformed FCIDUMP content. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConsistencyError(QfciError, ValueError):
    """Duplicate integral entries that disagree beyond tolerance."""


class DimensionMismatch(QfciError, ValueError):
    """Operator and state act on different numbers of qubits/modes."""


class SectorTooLarge(QfciError, ValueError):
    """Requested particle-number sector exceeds the dense-solver cap."""


class CapExceeded(QfciError, ValueError):
    """Register size above the qubit cap, or an array above its byte budget."""


class IndexOutOfRange(QfciError, IndexError):
    """Qubit index outside the register."""


class DegenerateState(QfciError, ValueError):
    """State norm too small to measure or normalize."""


class MissingSector(QfciError, ValueError):
    """State has weight in a sector not covered by the supplied spectra."""


class ElectronCountExceedsOrbitals(QfciError, ValueError):
    """More electrons of one spin than spatial orbitals."""


class OverlapWithCore(QfciError, ValueError):
    """Open-shell orbital collides with the doubly-occupied core."""


class EmptyAfterThreshold(QfciError, ValueError):
    """Amplitude file has no entries above the cut threshold."""


class MalformedLine(ParseError):
    """Unreadable line in an amplitude-guess file."""


class WeightNormalization(QfciError, ValueError):
    """Eigenstate weights do not sum to one."""
