"""Exception taxonomy shared across the package.

Each class maps to a distinct CLI exit code (see cli.py), so library code
should raise these rather than bare ValueError/RuntimeError.
"""


class InputError(ValueError):
    """A caller-supplied value is malformed or outside its domain."""


class ConfigError(ValueError):
    """A configuration is internally contradictory or incomplete."""


class CapacityError(RuntimeError):
    """A requested computation exceeds a size ceiling."""


def check_capacity(stage: str, count: int, ceiling: int, unit: str) -> None:
    """Raise CapacityError naming the stage, the count it reached (by bit
    length past 1024 bits, too long to print) and the ceiling it passed."""
    if count > ceiling:
        shown = count if count < 2**1024 else f"a {count.bit_length()}-bit count of"
        raise CapacityError(f"{stage} reached {shown} {unit}, ceiling is {ceiling}")
