"""The immutable record base of the package's result and input types.

A subclass lists its fields as class annotations, in order, with
optional defaults; the base supplies the constructor, ``__eq__``,
``__hash__``, ``__repr__`` and :meth:`Record.replace`.  It reads the
field names when the subclass is created and generates no code, so
importing it loads no module: the standard library's generated records
would load ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every
command's start-up.

A record is not a tuple: it never equals one, is not iterable and is not
JSON-serializable, so code that accepts lists or tuples of items cannot
mistake a record for one.
"""


class Record:
    """Fields are set once, by the constructor; ``__post_init__``, if the
    subclass defines one, validates them.  Assigning or deleting an
    attribute raises ``AttributeError``.  Instances keep a ``__dict__``, so
    ``functools.cached_property`` can fill derived values, which are no
    fields: equality, hashing and ``repr`` read the fields alone."""

    _fields = ()    # field names in annotation order
    _defaults = {}  # field name -> default value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # the class's own annotations
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} has {len(fields)} fields, "
                            f"got {len(args)} positional values")
        values = dict(cls._defaults)
        values.update(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in fields[:len(args)]:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        if len(values) < len(fields):
            missing = ", ".join(name for name in fields if name not in values)
            raise TypeError(f"{cls.__name__} is missing field(s) {missing}")
        self.__dict__.update(values)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _values(self) -> tuple:
        state = self.__dict__
        return tuple(state[name] for name in self._fields)

    def replace(self, **changes):
        """A new record with ``changes`` applied, validated afresh; values
        cached on this one are not carried over."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"
