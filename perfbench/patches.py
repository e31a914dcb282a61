"""Class-level method replacement that can be undone exactly.

The benchmark observes the program from outside: it replaces public methods
on the program's classes with wrappers for the length of one run and then
puts the original function objects back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

_MISSING = object()


class Patches:
    """A stack of ``(class, name, original)`` replacements."""

    def __init__(self) -> None:
        self._applied: List[Tuple[type, str, object]] = []

    def wrap(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` by ``make(original)``.

        Only a method defined in ``cls`` itself may be wrapped, so that
        removal restores the class dictionary exactly as it was.
        """
        original = cls.__dict__.get(name, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{cls.__qualname__} does not define {name!r}")
        wrapper = make(original)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(cls, name, wrapper)
        self._applied.append((cls, name, original))

    def remove(self) -> None:
        """Undo every replacement, newest first."""
        while self._applied:
            cls, name, original = self._applied.pop()
            setattr(cls, name, original)

    @property
    def applied(self) -> List[Tuple[type, str, object]]:
        return list(self._applied)
