"""Records: the value types and reports of qcong, without ``dataclasses``.

A ``Record`` subclass declares its fields as class annotations, in order,
with an optional default each:

    class Parts(FrozenRecord):
        d: int = 1
        odd: bool = False

and gets construction by position or keyword, equality over its class
and fields, and a ``repr``.  A ``__post_init__`` method, if the class
defines one, validates (or completes) each new record.  A class lists
fields to leave out of its ``repr`` in ``_hidden``.

A record's ``__dict__`` holds exactly its fields, in declared order, so
``vars(record)`` is its field mapping and, for a report, its JSON form.
Reports, which the checks fill in as they go, are mutable and unhashable
``Record`` subclasses; the values (expression nodes, specs, claims, scan
hits) subclass ``FrozenRecord``, which adds immutability and a hash.

Every ``qcong`` command pays for its imports: a dataclass imports
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``) and compiles
generated methods for each class, so these classes read their fields once
and bind each call's arguments at run time instead (see the README's
"Start-up").
"""

from __future__ import annotations


def bind(owner, names, defaults, args, kwargs):
    """The values of the parameters ``names`` of ``owner`` (a name for
    messages) for a call with ``args`` and ``kwargs``, in order; a name
    missing from both takes its entry in the ``defaults`` dict."""
    if len(args) > len(names):
        raise TypeError(f"{owner}() takes {len(names)} arguments, "
                        f"got {len(args)}")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{owner}() is missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{owner}() got an unexpected or repeated argument "
                        f"{', '.join(map(repr, kwargs))}")
    return values


class Record:
    """A record whose fields are its class annotations (after those of its
    record bases), with equality and ``repr`` over them; unhashable, as it
    is mutable."""

    __slots__ = ()
    _fields = ()
    _defaults = {}
    #: fields that ``repr`` leaves out
    _hidden = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        cls._defaults = {**cls._defaults,
                         **{k: cls.__dict__[k] for k in own if k in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = bind(type(self).__name__, fields, self._defaults, args, kwargs)
        object.__setattr__(self, "__dict__", dict(zip(fields, args)))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{k}={v!r}" for k, v in vars(self).items()
                          if k not in self._hidden)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """An immutable record; hashable when its field values are."""

    __slots__ = ()

    def __hash__(self):
        return hash((type(self), *vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"delete {name!r}")
