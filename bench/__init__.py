"""One benchmark for tcc's compile, execute and serve paths.

``python -m bench run`` measures the end-to-end metrics of four
workloads; ``python -m bench trace`` does a separate traced run for the
per-layer metrics.  See ``bench/README.md``.  Importing this package has
no side effects: the command line puts ``src`` on the path itself.
"""

WORKLOADS = ("fig4-compile", "fig4-execute", "serve-mix", "serve-churn")
