"""Unit tests for JVM data-model pieces: class files, heap, frames,
linking, serialization edges."""

import pytest

from repro.heap import (
    ArrayIndexError,
    ArrayObj,
    NegativeArraySizeError,
    Obj,
    default_value,
)
from repro.jvm import (
    ClassBuilder,
    ClassFile,
    ClassFormatError,
    FieldInfo,
    Frame,
    JVM,
    LinkError,
    MethodInfo,
    Op,
    bootstrap_classfiles,
    is_array_type,
    is_ref_type,
    jstr,
)
from repro.jvm.classfile import array_elem_type
from repro.sim import SUN, Node, SimEngine

from conftest import make_jvm


# ---------------------------------------------------------------------------
# Type helpers
# ---------------------------------------------------------------------------
def test_type_predicates():
    assert is_array_type("int[]") and is_array_type("Foo[][]")
    assert not is_array_type("int")
    assert array_elem_type("Foo[][]") == "Foo[]"
    with pytest.raises(ValueError):
        array_elem_type("int")
    assert is_ref_type("Foo") and is_ref_type("str") and is_ref_type("int[]")
    assert not is_ref_type("int") and not is_ref_type("double")


def test_default_values():
    assert default_value("int") == 0
    assert default_value("boolean") == 0
    assert default_value("double") == 0.0
    assert default_value("Foo") is None
    assert default_value("str") is None
    assert default_value("int[]") is None


# ---------------------------------------------------------------------------
# ClassFile
# ---------------------------------------------------------------------------
def test_duplicate_field_rejected():
    cf = ClassFile("A")
    cf.add_field(FieldInfo("x", "int"))
    with pytest.raises(ClassFormatError):
        cf.add_field(FieldInfo("x", "double"))


def test_duplicate_method_rejected():
    cf = ClassFile("A")
    cf.add_method(MethodInfo("m", [], "void"))
    with pytest.raises(ClassFormatError):
        cf.add_method(MethodInfo("m", ["int"], "void"))


def test_invalid_flags_rejected():
    cf = ClassFile("A")
    with pytest.raises(ClassFormatError):
        cf.add_method(MethodInfo("m", [], "void", flags=frozenset({"magic"})))


def test_object_class_has_no_super():
    cf = ClassFile("Object")
    assert cf.super_name is None
    cf2 = ClassFile("Other")
    assert cf2.super_name == "Object"


def test_classfile_copy_is_deep_for_code():
    cb = ClassBuilder("A")
    mb = cb.method("m", ret="int", flags=["static"])
    mb.const(1)
    mb.retval()
    cb.finish(mb)
    original = cb.build()
    clone = original.copy()
    clone.methods["m"].code[0].a = 99
    assert original.methods["m"].code[0].a == 1


def test_method_nargs():
    m = MethodInfo("m", ["int", "double"], "void")
    assert m.nargs == 3  # receiver + 2
    s = MethodInfo("s", ["int"], "void", flags=frozenset({"static"}))
    assert s.nargs == 1


def test_wire_size_grows_with_content():
    small = ClassFile("A")
    big = ClassFile("A")
    for i in range(10):
        big.add_field(FieldInfo(f"f{i}", "int"))
    assert big.wire_size() > small.wire_size()


# ---------------------------------------------------------------------------
# Heap
# ---------------------------------------------------------------------------
def test_array_defaults_and_bounds():
    arr = ArrayObj("double", 3)
    assert arr.data == [0.0, 0.0, 0.0]
    assert len(arr) == 3
    assert arr.class_name == "double[]"
    with pytest.raises(ArrayIndexError):
        arr.get(3)
    with pytest.raises(ArrayIndexError):
        arr.get(-1)
    with pytest.raises(ArrayIndexError):
        arr.set(5, 1.0)


def test_negative_array_size():
    with pytest.raises(NegativeArraySizeError):
        ArrayObj("int", -1)


def test_obj_field_initialization():
    engine, node, jvm = make_jvm()
    cb = ClassBuilder("P")
    cb.field("a", "int", init=7)
    cb.field("b", "double")
    cb.field("c", "P")
    jvm.load_classes([cb.build()])
    obj = jvm.new_instance("P")
    assert obj.fields == [7, 0.0, None]
    assert obj.class_name == "P"
    assert obj.header is None and obj.monitor is None


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------
def test_link_requires_superclass():
    engine, node, jvm = make_jvm()
    cb = ClassBuilder("Child", super_name="Ghost")
    with pytest.raises(LinkError):
        jvm.load_class(cb.build())


def test_load_classes_resolves_any_order():
    engine, node, jvm = make_jvm()
    a = ClassBuilder("LA").build()
    b = ClassBuilder("LB", super_name="LA").build()
    c = ClassBuilder("LC", super_name="LB").build()
    jvm.load_classes([c, a, b])  # reverse dependency order
    assert jvm.lookup("LC").is_subtype_of("LA")


def test_load_classes_detects_cycles():
    engine, node, jvm = make_jvm()
    a = ClassFile("CycA", super_name="CycB")
    b = ClassFile("CycB", super_name="CycA")
    with pytest.raises(LinkError, match="circular|missing"):
        jvm.load_classes([a, b])


def test_double_load_rejected():
    engine, node, jvm = make_jvm()
    jvm.load_class(ClassBuilder("Once").build())
    with pytest.raises(LinkError):
        jvm.load_class(ClassBuilder("Once").build())


def test_field_shadowing_rejected():
    engine, node, jvm = make_jvm()
    base = ClassBuilder("ShadowBase")
    base.field("x", "int")
    sub = ClassBuilder("ShadowSub", super_name="ShadowBase")
    sub.field("x", "int")
    jvm.load_class(base.build())
    with pytest.raises(LinkError, match="shadows"):
        jvm.load_class(sub.build())


def test_vtable_inheritance_and_override():
    engine, node, jvm = make_jvm()
    base = ClassBuilder("VB")
    m = base.method("f", ret="int")
    m.const(1); m.retval()
    base.finish(m)
    sub = ClassBuilder("VS", super_name="VB")
    jvm.load_classes([base.build(), sub.build()])
    assert jvm.lookup("VS").method("f").klass == "VB"


def test_unknown_field_and_method_raise():
    engine, node, jvm = make_jvm()
    jvm.load_class(ClassBuilder("Bare").build())
    with pytest.raises(LinkError):
        jvm.field_index("Bare", "nothing")
    with pytest.raises(LinkError):
        jvm.resolve_method("Bare", "nothing")
    with pytest.raises(LinkError):
        jvm.lookup("NoSuch")


# ---------------------------------------------------------------------------
# Frame & misc
# ---------------------------------------------------------------------------
def test_frame_locals_padding():
    m = MethodInfo("m", ["int"], "void", max_locals=5,
                   flags=frozenset({"static"}))
    args = [42]
    f = Frame(m, args)
    assert f.locals == [42, None, None, None, None]
    assert f.locals is args  # padded in place: a call copies no list
    assert Frame(m, [1, 2, 3, 4, 5, 6]).locals == [1, 2, 3, 4, 5, 6]


def test_jstr_object_form():
    engine, node, jvm = make_jvm()
    jvm.load_class(ClassBuilder("X").build())
    obj = jvm.new_instance("X")
    assert jstr(obj).startswith("X@")
    arr = ArrayObj("int", 2)
    assert jstr(arr).startswith("int[]@")


def test_bootstrap_classfiles_fresh_each_call():
    a = bootstrap_classfiles()
    b = bootstrap_classfiles()
    assert {cf.name for cf in a} == {cf.name for cf in b}
    # Mutating one batch must not leak into the next (the rewriter
    # renames class files in place).
    a[0].name = "mutated"
    assert b[0].name != "mutated"
