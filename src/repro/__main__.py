"""``python -m repro`` — the suite's command-line entry point.

Figure reproductions (``fig4``..``fig13``), sweeps and their cache
(``sweep``, ``cache``), one-off measurements (``metrics``), the partition
advisor (``advisor``), the sweep service (``serve``) and the trace tools
(``trace export``, ``report``) all dispatch through :mod:`repro.cli`.
"""

import sys

from .cli import main

sys.exit(main())
