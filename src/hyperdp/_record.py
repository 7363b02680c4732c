"""Frozen record classes, built without generating code.

``record`` gives a class the parts of ``@dataclass(frozen=True)`` that
the records of this package use.  The fields are the class's own
annotations, in order, passed by position or keyword; a class attribute
named like a field is its default.  ``__post_init__``, when the class
defines one, runs after the fields are set and is looked up on the
instance, so a method patched onto the class later is the one called.
Equality (same class, equal field tuples), the hash (of the field
tuple) and ``repr`` (``QualName(field=value, ...)``) see fields only,
not the attributes ``__post_init__`` sets with ``object.__setattr__``.
Assigning or deleting an attribute raises ``AttributeError``.  The
methods are closures over each class's field names: no source is
compiled per class, which is what makes ``dataclasses`` slow to import
and to apply.
"""

import operator


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = hasattr(cls, "__post_init__")
    if count == 1:
        get = operator.attrgetter(names[0])

        def values(self):
            return (get(self),)
    else:
        values = operator.attrgetter(*names)

    def bind(args, kwargs):
        if len(args) > count:
            raise TypeError(
                f"{cls.__qualname__}() takes {count} arguments but {len(args)} were given"
            )
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__qualname__}() got multiple values for {name!r}")
            given[name] = value
        missing = [name for name in names if name not in given and name not in defaults]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing arguments {missing!r}")
        return [given[name] if name in given else defaults[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
