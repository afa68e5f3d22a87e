"""The paper's benchmark applications (section 6.2), each written twice:

* a `C version that generates code at run time, and
* a static ANSI C version compiled by the static back end (the lcc-level
  baseline / gcc-level yardstick).

Every module exposes an :class:`~repro.apps.base.App` instance; the registry
below is what the benchmark harness iterates over.
"""

from repro.apps.base import App, MeasureResult
from repro.apps.harness import measure
from repro.apps import (
    hash_app,
    ms_app,
    heap_app,
    ntn_app,
    cmp_app,
    query_app,
    mshl_app,
    umshl_app,
    pow_app,
    binary_app,
    dp_app,
    blur_app,
)

#: name -> App, in the paper's presentation order.
ALL_APPS = {
    app.name: app
    for app in (
        hash_app.APP,
        ms_app.APP,
        heap_app.APP,
        ntn_app.APP,
        cmp_app.APP,
        query_app.APP,
        mshl_app.APP,
        umshl_app.APP,
        pow_app.APP,
        binary_app.APP,
        dp_app.APP,
        blur_app.APP,
    )
    if app is not None
}

#: The eleven benchmarks of Figure 4/5 (blur is the separate case study).
FIGURE4_APPS = [n for n in ALL_APPS if n != "blur"]

__all__ = ["App", "MeasureResult", "ALL_APPS", "FIGURE4_APPS", "measure"]
