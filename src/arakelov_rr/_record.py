"""Frozen, slotted records built from a class's annotated fields.

``record`` gives a class what this package used from a frozen
``dataclasses.dataclass``, without generating and compiling source code
for each class: one ``__init__`` that binds positional and keyword
fields and then calls ``self.__post_init__()`` when the class defines
one, dataclass ``__eq__``, ``__hash__`` and ``__repr__``, and
``dataclasses.FrozenInstanceError`` on assignment and deletion.
"""

from __future__ import annotations

from operator import attrgetter


def _setattr(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make the annotated fields of cls a frozen, slotted record.

    Fields take their defaults from the class body; a field with a
    default is followed only by fields with defaults.
    """
    body = cls.__dict__
    name = cls.__qualname__
    names = tuple(body.get("__annotations__", ()))
    n = len(names)
    required = sum(field not in body for field in names)
    if any(field not in body for field in names[required:]):
        raise TypeError(f"{name}: a field without a default follows one with a default")
    defaults = tuple(body.get(field) for field in names)
    skip = {*names, "__dict__", "__weakref__"}
    namespace = {k: v for k, v in body.items() if k not in skip}
    cls = type(cls)(cls.__name__, cls.__bases__, namespace | {
        "__slots__": names, "__qualname__": name,
        "__setattr__": _setattr, "__delattr__": _delattr,
    })
    indexed = tuple(enumerate(getattr(cls, field).__set__ for field in names))
    position = {field: i for i, field in enumerate(names)}
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    # the field values as a tuple, also for one field
    values = get if n > 1 else lambda self: (get(self),)

    def bind(args, kwargs):
        """The field values in order, for a call that is not all-positional."""
        if len(args) > n:
            raise TypeError(f"{name}() takes {n} positional arguments, not {len(args)}")
        bound = [*args, *defaults[len(args):]]
        for field, value in kwargs.items():
            i = position.get(field, -1)
            if i < len(args):
                raise TypeError(f"{name}() got an unexpected or repeated argument {field!r}")
            bound[i] = value
        for field in names[len(args):required]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing required argument {field!r}")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for i, set_field in indexed:
            set_field(self, args[i])
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
