"""Import-time registration of the built-in RPR rules.

Importing this module populates :data:`repro.check.rules.RULES`.  A new
rule is one module following the ``rules_*.py`` pattern plus one import
line here — see ``docs/static_analysis.md`` for the authoring guide.
"""

from . import rules_clock    # noqa: F401  RPR001 two-clock purity
from . import rules_rng      # noqa: F401  RPR002 determinism
from . import rules_charge   # noqa: F401  RPR003 charge accounting
from . import rules_caches   # noqa: F401  RPR004 bounded caches
from . import rules_fork     # noqa: F401  RPR005 fork-safety
from . import rules_vexec    # noqa: F401  RPR006 vexec hygiene
from . import rules_service  # noqa: F401  RPR007 service loop purity
from . import rules_incremental  # noqa: F401  RPR008 event-queue determinism
from . import rules_obs      # noqa: F401  RPR009 telemetry hygiene
from .flow import rules_async  # noqa: F401  RPR010/RPR011 async races
from .flow import rules_procs  # noqa: F401  RPR012 cross-process state
