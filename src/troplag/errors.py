"""Error type and record base shared by all workbench modules.

Every failure that a caller may want to dispatch on carries a short
upper-case code.  Report-valued operations (validation, evenness) do not
raise; they return a report object listing the violated invariants.
"""


class Record:
    """Base of the plain value records: a subclass lists its fields in
    ``__slots__`` and sets them in ``__init__``.  Two records are equal
    when they have the same type and equal fields; a record hashes as
    the tuple of its fields and prints as ``Name(field=value, ...)``.
    Records are not mutated after construction."""
    __slots__ = ()

    def _astuple(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__))


class WorkbenchError(Exception):
    def __init__(self, code, message, pointer=None):
        self.code = code
        self.pointer = pointer
        super().__init__(f"{code}: {message}" if pointer is None
                         else f"{code} at {pointer}: {message}")


# Codes that signal bad mathematical input rather than an internal bug.
# The CLI maps these to exit status 2 (validation failure).
VALIDATION_CODES = frozenset({
    "INVALID_CURVE",
    "INVALID_DOMAIN",
    "EMPTY_DOMAIN",
    "NOT_EVEN_PRIMITIVE",
    "NOT_TRIVALENT",
    "NOT_BOUNDARY_CONFIG",
    "NON_GENERIC_CONFIG",
    "DELTA_TOO_LARGE",
    "NON_FINITE_SIGMA",
    "DEGENERATE_VERTEX",
    "NO_BASIS",
    "SPLIT_DEGENERATE",
    "NOT_BISSECTRICE",
})
