"""gadtmap: which functions are mappable over a GADT term?

Given a program of data type declarations, a term, and a (possibly deep) type
specification, the analysis computes the minimal constraints a function must
satisfy to be mapped over the term, the most general mappable function shape,
and the decomposition of the term into essential and incidental structure.
"""

from .cli import AnalysisReport, analyze, report_to_json
from .constraints import (
    AnnotatedTerm,
    CallTrace,
    IndexName,
    InternalInvariantViolation,
    NotTopUnifiable,
    RunResult,
    match_spec,
    recursion_target,
    run,
)
from .funexpr import (
    Call,
    Constraint,
    FunExpr,
    FunVar,
    Id,
    Lift,
    Opaque,
    ProdF,
    SumF,
    canonical_rename,
    lift_type,
    normalize,
)
from .oracle import (
    AgreementReport,
    CandidateSpaceTooLarge,
    OracleInconsistency,
    agrees,
    count_candidates,
    enumerate_candidates,
    is_instance,
    map_apply,
    match_fun,
)
from .parser import ParseError, parse_funexpr, parse_program, parse_spec, parse_term, parse_type
from .pretty import pretty, pretty_annotated
from .solver import (
    AtomicConstraint,
    SolvedSystem,
    SpecUnsatisfiable,
    decompose,
    most_general_form,
    solve,
    unify_all,
)
from .syntax import (
    Ann,
    App,
    Atom,
    Base,
    Const,
    ConstructorSig,
    Ctor,
    GadtDecl,
    Inl,
    Inr,
    Lit,
    Meta,
    Pair,
    Prod,
    Program,
    Sum,
    Term,
    TypeExpr,
    Var,
)
from .typecheck import (
    FunArityMismatch,
    InstanceWitness,
    SpecMismatch,
    TypeCheckError,
    TypedNode,
    TypedTerm,
    check_call_invariants,
    infer,
    spec_head_arity,
)
from .wellformed import (
    Diagnostic,
    ValidatedProgram,
    WellformedError,
    is_restricted,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
