"""Test-wide hypothesis settings.

Property tests draw the same examples on every run (``derandomize``), so a
failure reproduces and a pass means the same thing each time. Wall time on
a shared machine varies too much for a per-example deadline. There is no
example database; hypothesis still writes its cache of source constants
under ``.hypothesis/constants/``, which ``.gitignore`` lists.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
