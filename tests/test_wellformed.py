"""Class membership checks and the proper/ordinary classification."""
from __future__ import annotations

import pytest

import gadtmap as g


def test_seq_is_proper(seq_vp):
    # pair returns Seq (a * b): an index that is not the bare binder tuple.
    assert seq_vp.proper_flags == {"Seq": True}


def test_nested_types_are_not_proper(nested_vp):
    assert nested_vp.proper_flags == {
        "List": False,
        "PTree": False,
        "Bush": False,
        "Rose": False,
    }


def test_g_classification(g_vp):
    assert g_vp.proper_flags == {"List": False, "G": True}


class TestIsRestricted:
    def test_pair_is_restricted(self, seq_vp):
        _, pair = seq_vp.ctor("pair")
        assert g.is_restricted(pair, 1)

    def test_pnode_is_not_restricted(self, nested_vp):
        _, pnode = nested_vp.ctor("pnode")
        assert not g.is_restricted(pnode, 1)

    def test_nullary_binder_tuple_is_restricted(self, g_vp):
        # const : G Nat has no binders, so its index tuple cannot be the
        # binder tuple of a 1-ary type.
        _, const = g_vp.ctor("const")
        assert g.is_restricted(const, 1)


class TestValidate:
    def test_argument_may_mention_proper_gadt(self):
        src = (
            "data Seq : Set -> Set where const : forall a. a -> Seq a ; "
            "pair : forall a b. Seq a -> Seq b -> Seq (a * b)\n"
            "data H : Set -> Set where ok : forall a. H (Seq a) -> H a"
        )
        vp = g.validate(g.parse_program(src))
        assert vp.proper_flags["H"] is False

    def test_index_may_not_mention_proper_gadt(self):
        src = (
            "data Seq : Set -> Set where const : forall a. a -> Seq a ; "
            "pair : forall a b. Seq a -> Seq b -> Seq (a * b)\n"
            "data H : Set -> Set where bad2 : forall a. a -> H (Seq a)"
        )
        with pytest.raises(g.WellformedError) as ei:
            g.validate(g.parse_program(src))
        assert [d.code for d in ei.value.errors] == ["KMentionsProperGadt"]

    def test_index_may_not_mention_self(self):
        src = "data L : Set -> Set where c : forall a. a -> L (L a)"
        with pytest.raises(g.WellformedError) as ei:
            g.validate(g.parse_program(src))
        assert "KMentionsSelf" in [d.code for d in ei.value.errors]

    def test_index_may_mention_plain_nested_type(self):
        src = (
            "data List : Set -> Set where nil : forall a. List a ; "
            "cons : forall a. a -> List a -> List a\n"
            "data G : Set -> Set where flat : forall a. List (G a) -> G (List a)"
        )
        vp = g.validate(g.parse_program(src))
        assert vp.proper_flags["G"] is True

    def test_unknown_type_constructor(self):
        src = "data A : Set -> Set where c : forall a. Mystery a -> A a"
        with pytest.raises(g.WellformedError) as ei:
            g.validate(g.parse_program(src))
        assert "UnknownTypeConstructor" in [d.code for d in ei.value.errors]

    def test_arity_misuse_is_reported(self):
        src = (
            "data List : Set -> Set where nil : forall a. List a\n"
            "data A : Set -> Set where c : forall a. List a a -> A a"
        )
        with pytest.raises(g.WellformedError) as ei:
            g.validate(g.parse_program(src))
        assert "BadArgForm" in [d.code for d in ei.value.errors]

    def test_products_and_sums_in_indices_are_legal(self):
        src = "data P : Set -> Set where c : forall a b. a -> b -> P ((a * b) + Nat)"
        vp = g.validate(g.parse_program(src))
        assert vp.proper_flags["P"] is True

    def test_order_independence(self):
        a = "data A : Set -> Set where ca : forall x. B x -> A x\n" \
            "data B : Set -> Set where cb : forall x. A x -> B x"
        b = "data B : Set -> Set where cb : forall x. A x -> B x\n" \
            "data A : Set -> Set where ca : forall x. B x -> A x"
        va, vb = g.validate(g.parse_program(a)), g.validate(g.parse_program(b))
        assert va.proper_flags == vb.proper_flags == {"A": False, "B": False}

    def test_adding_unrestricted_constructor_keeps_flags(self):
        base = "data L : Set -> Set where nil : forall a. L a"
        more = base + " ; cons : forall a. a -> L a -> L a"
        assert g.validate(g.parse_program(base)).proper_flags == {"L": False}
        assert g.validate(g.parse_program(more)).proper_flags == {"L": False}

    def test_mutual_recursion_is_allowed(self):
        src = (
            "data Even : Set -> Set where ez : forall a. Even a ; "
            "es : forall a. Odd a -> Even a\n"
            "data Odd : Set -> Set where os : forall a. Even a -> Odd a"
        )
        vp = g.validate(g.parse_program(src))
        assert vp.proper_flags == {"Even": False, "Odd": False}


class TestHandBuiltPrograms:
    """Diagnostics the parser pre-empts: only a `Program` built through the
    library reaches them."""

    @staticmethod
    def errors(*ctors: g.ConstructorSig) -> list[str]:
        with pytest.raises(g.WellformedError) as ei:
            g.validate(g.Program((g.GadtDecl("L", 1, ctors),)))
        return [str(d) for d in ei.value.errors]

    def test_duplicate_constructor_name(self):
        nil = g.ConstructorSig("nil", ("a",), (), (g.Var("a"),))
        assert self.errors(nil, nil) == ["BadArgForm: duplicate constructor name 'nil'"]

    def test_metavariable_argument_is_unsupported(self):
        mk = g.ConstructorSig("mk", ("a",), (g.Var("a"), g.Meta(0)), (g.Var("a"),))
        assert self.errors(mk) == ["BadArgForm: unsupported argument type in argument 2 of 'mk'"]
