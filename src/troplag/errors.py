"""Error type and record base shared by all workbench modules.

Every failure that a caller may want to dispatch on carries a short
upper-case code.  Report-valued operations (validation, evenness) do not
raise; they return a report object listing the violated invariants.
"""


class Record:
    """Base of the plain value records.  A subclass lists its fields in
    ``__slots__`` and the defaults of its last fields in ``_defaults``;
    ``Record(*args, **kwargs)`` fills the fields in order from the
    positional arguments, then from the keywords, then from the
    defaults, and raises ``TypeError`` as a dataclass would.  Two
    records are equal when they have the same type and equal fields; a
    record hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``.  Records are not mutated after
    construction."""
    __slots__ = ()
    _defaults = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._complete(args, kwargs)
        for field, value in zip(names, args):
            setattr(self, field, value)

    def _complete(self, args, kwargs):
        """One value per field: args, then kwargs, then _defaults."""
        names, name = self.__slots__, self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{name} takes {len(names)} fields but "
                            f"{len(args)} were given")
        values = list(args)
        first = len(names) - len(self._defaults)
        for i in range(len(args), len(names)):
            if names[i] in kwargs:
                values.append(kwargs.pop(names[i]))
            elif i >= first:
                values.append(self._defaults[i - first])
            else:
                raise TypeError(f"{name} is missing field {names[i]!r}")
        if kwargs:
            field = next(iter(kwargs))
            raise TypeError(f"{name} got {field!r} twice" if field in names
                            else f"{name} has no field {field!r}")
        return values

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
