"""Validation of parsed programs and the proper/ordinary classification.

A program is accepted when every constructor type fits the supported shape:
constructor names are distinct, every data type applied is declared and
given its arity, and return indices mention neither the data type being
declared nor any data type classified as proper. Every argument type the
parser produces has a supported form; only a hand-built one, such as a
metavariable, is reported as unsupported.

A data type is *proper* when at least one of its constructors is restricted,
i.e. its return indices differ from the plain tuple of bound variables. The
check is local to each declaration, so mutual recursion needs no fixpoint.
"""
from __future__ import annotations

from .syntax import (
    App,
    ConstructorSig,
    Frozen,
    GadtDecl,
    Program,
    Prod,
    Sum,
    TypeExpr,
    Var,
    _set,
    is_closed,
    type_children,
)


class Diagnostic(Frozen):
    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        _set(self, "code", code)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class WellformedError(Exception):
    def __init__(self, errors: list[Diagnostic]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


class ValidatedProgram(Frozen):
    __slots__ = ("program", "proper_flags", "ctor_index")

    def __init__(
        self,
        program: Program,
        proper_flags: dict[str, bool],
        ctor_index: dict[str, tuple[GadtDecl, ConstructorSig]],
    ) -> None:
        _set(self, "program", program)
        _set(self, "proper_flags", proper_flags)
        _set(self, "ctor_index", ctor_index)

    def arity(self, name: str) -> int:
        decl = self.program.decl(name)
        if decl is None:
            raise KeyError(name)
        return decl.arity

    def is_proper(self, name: str) -> bool:
        return self.proper_flags[name]

    def ctor(self, name: str) -> tuple[GadtDecl, ConstructorSig]:
        return self.ctor_index[name]


def is_restricted(sig: ConstructorSig, arity: int) -> bool:
    """True unless the return indices are exactly the tuple of bound variables."""
    if len(sig.type_vars) != arity:
        return True
    return any(
        k != Var(v) for k, v in zip(sig.ret_indices, sig.type_vars)
    )


def _check_arities(t: TypeExpr, program: Program, errors: list[Diagnostic], where: str) -> set[str]:
    """Report undeclared and misapplied constructors in `t`; returns the
    names of all the constructors applied in `t`."""
    mentioned: set[str] = set()
    if isinstance(t, App):
        mentioned.add(t.ctor)
        decl = program.decl(t.ctor)
        if decl is None:
            errors.append(
                Diagnostic(
                    "UnknownTypeConstructor",
                    f"unknown type constructor {t.ctor!r} in {where}",
                )
            )
        elif len(t.args) != decl.arity:
            errors.append(
                Diagnostic(
                    "BadArgForm",
                    f"{t.ctor!r} applied to {len(t.args)} argument(s) in {where}, "
                    f"expected {decl.arity}",
                )
            )
    for c in type_children(t):
        mentioned |= _check_arities(c, program, errors, where)
    return mentioned


def _check_arg_form(t: TypeExpr, where: str, errors: list[Diagnostic]) -> None:
    # Accepted argument forms: a closed type, a variable, an application, a
    # product or a sum, so every parsed type; a metavariable is not one.
    if is_closed(t) or isinstance(t, Var):
        return
    if isinstance(t, (Prod, Sum, App)):
        return
    errors.append(Diagnostic("BadArgForm", f"unsupported argument type in {where}"))


def validate(program: Program) -> ValidatedProgram:
    """Check class membership and classify each data type as proper or not.

    Raises `WellformedError` carrying every diagnostic found; validation is
    deterministic and independent of declaration order.
    """
    errors: list[Diagnostic] = []
    ctor_index: dict[str, tuple[GadtDecl, ConstructorSig]] = {}
    for decl in program.decls:
        for sig in decl.ctors:
            if sig.name in ctor_index:
                errors.append(
                    Diagnostic(
                        "BadArgForm", f"duplicate constructor name {sig.name!r}"
                    )
                )
            ctor_index[sig.name] = (decl, sig)

    # Propriety is a per-declaration syntactic property of the return indices,
    # so it can be computed before the cross-declaration checks below.
    proper_flags = {
        decl.name: any(is_restricted(sig, decl.arity) for sig in decl.ctors)
        for decl in program.decls
    }

    for decl in program.decls:
        for sig in decl.ctors:
            for j, arg in enumerate(sig.arg_types):
                where = f"argument {j + 1} of {sig.name!r}"
                _check_arities(arg, program, errors, where)
                _check_arg_form(arg, where, errors)
            for ell, k in enumerate(sig.ret_indices):
                where = f"return index {ell + 1} of {sig.name!r}"
                for name in sorted(_check_arities(k, program, errors, where)):
                    if name == decl.name:
                        errors.append(
                            Diagnostic(
                                "KMentionsSelf",
                                f"{where} mentions {decl.name!r} itself",
                            )
                        )
                    elif proper_flags.get(name):
                        errors.append(
                            Diagnostic(
                                "KMentionsProperGadt",
                                f"{where} mentions the proper GADT {name!r}",
                            )
                        )
    if errors:
        raise WellformedError(errors)
    return ValidatedProgram(program, proper_flags, ctor_index)
