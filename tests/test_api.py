"""The public API computes what it is asked: resource ceilings belong to
the command-line front end alone."""

import inspect

import magoglab

KNOBS = {"ceiling", "allow_large"}


def test_no_exported_callable_takes_a_resource_knob():
    # exception classes take only a message
    exported = [(name, obj) for name, obj in vars(magoglab).items()
                if not name.startswith("_") and callable(obj)
                and not (inspect.isclass(obj) and issubclass(obj, BaseException))]
    assert exported
    for name, obj in exported:
        assert not KNOBS & set(inspect.signature(obj).parameters), name
