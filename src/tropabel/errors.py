"""Error taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: ValidationError -> 1, DeskScaleError -> 2,
GoldenMismatch -> 3.
"""


class ValidationError(ValueError):
    """Malformed or inconsistent input (bad ids, degree mismatch, ...)."""


class DeskScaleError(RuntimeError):
    """An enumeration or search exceeded the configured desk-scale cap."""


# the cap of every enumeration, face walk and CLI command not given one
DEFAULT_CAP = 1 << 20


class WorkCap:
    """Work counted against one desk-scale cap.

    `units` names the kinds of work a stage does, in the order its error
    reports them.  `charge(unit, amount)` counts that many more units of
    that kind (one by default) and raises DeskScaleError once the total passes the cap,
    naming the stage and every count."""

    def __init__(self, stage, cap, *units):
        self.stage, self.cap = stage, cap
        self.count = dict.fromkeys(units, 0)

    def charge(self, unit, amount=1):
        self.count[unit] += amount
        if sum(self.count.values()) > self.cap:
            spent = " and ".join(f"{n} {u}" for u, n in self.count.items())
            raise DeskScaleError(f"{self.stage}: {spent} exceed the cap of {self.cap}")


class SearchBoundError(DeskScaleError):
    """A bounded lattice search hit its bound before saturating."""

    def __init__(self, what, bound):
        super().__init__(f"{what}: search bound {bound} exceeded")
        self.bound = bound


class GoldenMismatch(RuntimeError):
    """Recomputed output differs from a committed golden file."""
