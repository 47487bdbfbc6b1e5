"""The base of the slotted value types (Bundle and Verdict), and the
`_make` of the named tuples that validate.

The plain records of the package are typing.NamedTuples.  The two types
here have a custom constructor, a value computed once, or a field that
equality leaves out, so they are small __slots__ classes instead; this
module gives them what a frozen record needs.

An instance is immutable: its constructor sets the slots through
`set_slot`, object.__setattr__ looked up once, and assigning or deleting
an attribute afterwards raises AttributeError.  `_fields` names the slots
that repr shows and that == and hash compare, in constructor order; ==
holds only between instances of the same class.
"""

from __future__ import annotations

__all__ = ["Frozen", "set_slot", "validated_make"]

# the constructors write every slot through this one alias
set_slot = object.__setattr__


def validated_make(cls, iterable):
    """`_make` for a named tuple whose __new__ validates: namedtuple's own
    `_make`, which `_replace` calls, builds the tuple past __new__."""
    return cls(*iterable)


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # copy and pickle restore the slots through here
        for name, value in state[1].items():
            set_slot(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
