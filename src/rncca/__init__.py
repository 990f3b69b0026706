"""Number-conserving reversible cellular automata toolkit.

Builds 4-neighbor reversible number-conserving CAs from 2-neighbor
reversible partitioned CAs, simulates finite, cyclic, and bi-periodic
configurations, and brute-checks conservation, injectivity, and the
two-steps-per-source-step simulation contract.
"""

from .convert import (
    NccaRule,
    ParticleCode,
    TauDecodeError,
    compose,
    convert,
    decode,
    decode_tau_prime,
    decompose,
    encode_tau,
    encode_tau_prime,
    heavy_part,
    is_balanced_heavy,
    is_balanced_light,
    light_part,
    phi,
    phi_inverse,
)
from .engine import (
    BiPeriodic,
    Cyclic,
    Finite,
    Rule,
    Trajectory,
    canonicalize,
    cell_at,
    configs_equal,
    make_rule,
    run,
    step,
    window_growth,
)
from .formats import ConfigParseError, format_configuration, parse_configuration, parse_configuration_text
from .rpca import (
    Rpca2,
    RuleParseError,
    check_local_injective,
    example_rpca,
    format_rpca,
    invert_rpca,
    make_rpca,
    parse_rpca,
    step_rpca,
)
from .verify import (
    DEFAULT_BUDGET,
    Counterexample,
    MassLedger,
    VerificationReport,
    check_injective_cyclic,
    check_number_conserving,
    check_simulation_correspondence,
    check_tau_prime_correspondence,
    format_report,
    ledger_is_constant,
    mass_ledger,
)

__version__ = "0.1.0"
