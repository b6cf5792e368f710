"""Static protocol analyzer based on the two bounds of witness functions."""

from .context import AuthChallenge, VerificationContext, load_context, parse_context
from .errors import (
    AnalysisError,
    AtomAbsent,
    ChallengeAtomAbsent,
    ChallengeNotReceived,
    NoSource,
    NotAKey,
    ParseError,
    UndeclaredAtom,
    UnknownAtom,
)
from .lattice import BOTTOM, TOP, Lattice, SecurityLevel
from .protocol import (
    Direction,
    GeneralizedRole,
    Narration,
    NarrationStep,
    RoleStep,
    encryption_patterns,
    extract_roles,
    load_narration,
    parse_narration,
)
from .report import AnalysisReport, analyze, render, render_json, render_text, report_from_json
from .safefun import Evaluation, Variant, f_prime
from .terms import (
    Atom,
    Concat,
    Enc,
    Identity,
    Message,
    Nonce,
    SymKey,
    Variable,
    apply,
    canonical_form,
    concat,
    format_message,
    format_substitution,
    rename_apart,
    unify,
    vars_of,
)
from .witness import (
    AuthCheck,
    CandidateSource,
    StepCheck,
    analyze_narration,
    candidate_sources,
    challenge_check,
    check_secrecy,
    check_step,
    lower_bound,
    variable_levels,
)

__version__ = "0.1.0"
