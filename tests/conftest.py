"""Session setup shared by the test modules.

When a property fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching``, which imports libcst when it is
installed, and libcst emits a ``DeprecationWarning`` on import.  Under
``python -W error -m pytest`` that warning would become an error inside
the plugin and end the session with ``INTERNALERROR`` and no summary, so
the module is imported here first with that warning ignored.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst or the module itself is absent
        pass
