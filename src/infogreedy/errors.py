"""Exception hierarchy shared by all modules.

Every error maps to a distinct CLI exit code so scripted callers can tell
bad input, a refused oversized computation, and an internal cross-check
failure apart.
"""

EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4
EXIT_IO = 5


class InputError(ValueError):
    """Caller supplied invalid data (bad file, bad range, bad shape)."""


class AdmissibilityError(InputError):
    """An edge (i, j) with i >= j, which no ordered information graph allows."""


class DegenerateInstanceError(InputError):
    """The brute-force optimum is 0, so the efficiency ratio is undefined."""


class GuardRefusal(RuntimeError):
    """An exhaustive computation would exceed its size guard.

    Raised instead of silently sampling: a sampled "pass" would be a false
    certificate.
    """


class InternalConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagree."""


class InfeasibleLpError(InputError):
    """The linear program has an empty feasible region."""


class UnboundedLpError(InputError):
    """The linear program's objective is unbounded over the feasible region."""


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, InputError):
        return EXIT_INPUT
    if isinstance(exc, GuardRefusal):
        return EXIT_GUARD
    if isinstance(exc, InternalConsistencyError):
        return EXIT_INTERNAL
    if isinstance(exc, OSError):
        return EXIT_IO
    return 1
