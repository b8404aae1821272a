"""Interpreter unit tests: arithmetic, control flow, heap, invocation."""

import math

import pytest

from repro.heap import ArrayIndexError
from repro.jvm import (
    ArithmeticJavaError,
    ClassBuilder,
    ClassCastError,
    NullPointerError,
    Op,
)
from repro.jvm.interpreter import java_ddiv, java_idiv, java_irem, jstr

from conftest import run_main


def _main_class(body_fn, ret="int", name="Main", extra=None):
    """Build a class whose static main() body is emitted by body_fn(mb)."""
    cb = ClassBuilder(name)
    mb = cb.method("main", ret=ret, flags=["static"])
    body_fn(mb)
    cb.finish(mb)
    classes = [cb.build()]
    if extra:
        classes.extend(extra)
    return classes


def run_expr(body_fn, ret="int", **kw):
    classes = _main_class(body_fn, ret=ret)
    jvm, thread = run_main(classes, "Main", **kw)
    return thread.result


# ---------------------------------------------------------------------------
# Pure-Java semantics helpers
# ---------------------------------------------------------------------------
def test_java_idiv_truncates_toward_zero():
    assert java_idiv(7, 2) == 3
    assert java_idiv(-7, 2) == -3
    assert java_idiv(7, -2) == -3
    assert java_idiv(-7, -2) == 3


def test_java_idiv_by_zero():
    with pytest.raises(ArithmeticJavaError):
        java_idiv(1, 0)


def test_java_irem_sign_follows_dividend():
    assert java_irem(7, 3) == 1
    assert java_irem(-7, 3) == -1
    assert java_irem(7, -3) == 1


def test_java_ddiv_never_traps():
    assert java_ddiv(1.0, 0.0) == math.inf
    assert math.isnan(java_ddiv(0.0, 0.0))


def test_jstr_formats():
    assert jstr(None) == "null"
    assert jstr(3) == "3"
    assert jstr(1.0) == "1.0"
    assert jstr(1.5) == "1.5"
    assert jstr("x") == "x"


# ---------------------------------------------------------------------------
# Arithmetic & stack
# ---------------------------------------------------------------------------
def test_int_arith():
    def body(mb):
        mb.const(10); mb.const(3)
        mb.emit(Op.MUL)          # 30
        mb.const(4)
        mb.emit(Op.SUB)          # 26
        mb.const(5)
        mb.emit(Op.REM)          # 1
        mb.retval()
    assert run_expr(body) == 1


def test_int_div_truncation_in_bytecode():
    def body(mb):
        mb.const(-7); mb.const(2)
        mb.emit(Op.DIV)
        mb.retval()
    assert run_expr(body) == -3


def test_double_arith_and_conversion():
    def body(mb):
        mb.const(7)
        mb.emit(Op.I2D)
        mb.const(2.0)
        mb.emit(Op.DIV)          # 3.5
        mb.emit(Op.D2I)          # 3
        mb.retval()
    assert run_expr(body) == 3


def test_d2i_truncates_toward_zero():
    def body(mb):
        mb.const(-3.7)
        mb.emit(Op.D2I)
        mb.retval()
    assert run_expr(body) == -3


def test_bitwise_ops():
    def body(mb):
        mb.const(0b1100); mb.const(0b1010)
        mb.emit(Op.AND)          # 0b1000
        mb.const(1)
        mb.emit(Op.SHL)          # 0b10000
        mb.const(0b1)
        mb.emit(Op.OR)           # 0b10001
        mb.retval()
    assert run_expr(body) == 0b10001


def test_neg_and_cmp():
    def body(mb):
        mb.const(2.0); mb.const(3.0)
        mb.emit(Op.CMP)          # -1
        mb.emit(Op.NEG)          # 1
        mb.retval()
    assert run_expr(body) == 1


def test_stack_ops():
    def body(mb):
        mb.const(1); mb.const(2)
        mb.emit(Op.SWAP)         # 2,1
        mb.emit(Op.SUB)          # 1
        mb.emit(Op.DUP)
        mb.emit(Op.ADD)          # 2
        mb.retval()
    assert run_expr(body) == 2


def test_dup_x1():
    def body(mb):
        mb.const(5); mb.const(7)
        mb.emit(Op.DUP_X1)       # 7,5,7
        mb.emit(Op.ADD)          # 7,12
        mb.emit(Op.SUB)          # -5
        mb.retval()
    assert run_expr(body) == -5


def test_concat_stringifies():
    def body(mb):
        mb.const("x="); mb.const(42)
        mb.emit(Op.CONCAT)
        mb.retval()
    assert run_expr(body, ret="str") == "x=42"


# ---------------------------------------------------------------------------
# Control flow & locals
# ---------------------------------------------------------------------------
def test_loop_sum():
    def body(mb):
        i = mb.alloc_local()
        acc = mb.alloc_local()
        mb.const(0); mb.store(i)
        mb.const(0); mb.store(acc)
        top = mb.label(); done = mb.label()
        mb.mark(top)
        mb.load(i); mb.const(10)
        mb.if_cmp("ge", done)
        mb.load(acc); mb.load(i)
        mb.emit(Op.ADD); mb.store(acc)
        mb.emit(Op.IINC, i, 1)
        mb.goto(top)
        mb.mark(done)
        mb.load(acc)
        mb.retval()
    assert run_expr(body) == 45


def test_if_conditions_against_zero():
    for cond, value, expected in [
        ("eq", 0, 1), ("eq", 5, 0), ("ne", 5, 1),
        ("lt", -1, 1), ("ge", 0, 1), ("gt", 1, 1), ("le", 2, 0),
    ]:
        def body(mb, cond=cond, value=value):
            taken = mb.label(); end = mb.label()
            mb.const(value)
            mb.if_(cond, taken)
            mb.const(0); mb.goto(end)
            mb.mark(taken)
            mb.const(1)
            mb.mark(end)
            mb.retval()
        assert run_expr(body) == expected, (cond, value)


def test_iinc_negative():
    def body(mb):
        i = mb.alloc_local()
        mb.const(10); mb.store(i)
        mb.emit(Op.IINC, i, -3)
        mb.load(i)
        mb.retval()
    assert run_expr(body) == 7


# ---------------------------------------------------------------------------
# Objects, fields, inheritance
# ---------------------------------------------------------------------------
def _point_class():
    cb = ClassBuilder("Point")
    cb.field("x", "int")
    cb.field("y", "int")
    init = cb.method("<init>", params=["int", "int"])
    init.load(0)
    init.invoke(Op.INVOKESPECIAL, "Object", "<init>")
    init.load(0); init.load(1)
    init.emit(Op.PUTFIELD, "Point", "x")
    init.load(0); init.load(2)
    init.emit(Op.PUTFIELD, "Point", "y")
    init.ret()
    cb.finish(init)
    s = cb.method("sum", ret="int")
    s.load(0); s.emit(Op.GETFIELD, "Point", "x")
    s.load(0); s.emit(Op.GETFIELD, "Point", "y")
    s.emit(Op.ADD)
    s.retval()
    cb.finish(s)
    return cb.build()


def test_object_construction_and_fields():
    def body(mb):
        mb.emit(Op.NEW, "Point")
        mb.emit(Op.DUP)
        mb.const(3); mb.const(4)
        mb.invoke(Op.INVOKESPECIAL, "Point", "<init>")
        mb.invoke(Op.INVOKEVIRTUAL, "Point", "sum")
        mb.retval()
    classes = _main_class(body, extra=[_point_class()])
    jvm, thread = run_main(classes, "Main")
    assert thread.result == 7


def test_virtual_dispatch_uses_dynamic_type():
    base = ClassBuilder("Base")
    init = base.method("<init>")
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Object", "<init>"); init.ret()
    base.finish(init)
    m = base.method("value", ret="int")
    m.const(1); m.retval()
    base.finish(m)

    sub = ClassBuilder("Sub", super_name="Base")
    init = sub.method("<init>")
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Base", "<init>"); init.ret()
    sub.finish(init)
    m = sub.method("value", ret="int")
    m.const(2); m.retval()
    sub.finish(m)

    def body(mb):
        mb.emit(Op.NEW, "Sub")
        mb.emit(Op.DUP)
        mb.invoke(Op.INVOKESPECIAL, "Sub", "<init>")
        # Static type Base, dynamic type Sub: must return 2.
        mb.invoke(Op.INVOKEVIRTUAL, "Base", "value")
        mb.retval()

    classes = _main_class(body, extra=[base.build(), sub.build()])
    jvm, thread = run_main(classes, "Main")
    assert thread.result == 2


def test_inherited_field_layout_shared():
    base = ClassBuilder("B2")
    base.field("a", "int", init=10)
    init = base.method("<init>")
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Object", "<init>"); init.ret()
    base.finish(init)

    sub = ClassBuilder("S2", super_name="B2")
    sub.field("b", "int", init=20)
    init = sub.method("<init>")
    init.load(0); init.invoke(Op.INVOKESPECIAL, "B2", "<init>"); init.ret()
    sub.finish(init)

    def body(mb):
        mb.emit(Op.NEW, "S2")
        mb.emit(Op.DUP)
        mb.invoke(Op.INVOKESPECIAL, "S2", "<init>")
        mb.emit(Op.DUP)
        mb.emit(Op.GETFIELD, "B2", "a")    # access via superclass name
        mb.emit(Op.SWAP)
        mb.emit(Op.GETFIELD, "S2", "b")
        mb.emit(Op.ADD)
        mb.retval()

    classes = _main_class(body, extra=[base.build(), sub.build()])
    jvm, thread = run_main(classes, "Main")
    assert thread.result == 30


def test_statics():
    cb = ClassBuilder("Counter")
    cb.field("count", "int", is_static=True, init=5)

    def body(mb):
        mb.emit(Op.GETSTATIC, "Counter", "count")
        mb.const(1)
        mb.emit(Op.ADD)
        mb.emit(Op.PUTSTATIC, "Counter", "count")
        mb.emit(Op.GETSTATIC, "Counter", "count")
        mb.retval()

    classes = _main_class(body, extra=[cb.build()])
    jvm, thread = run_main(classes, "Main")
    assert thread.result == 6


def test_instanceof_and_checkcast():
    base = ClassBuilder("B3")
    init = base.method("<init>")
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Object", "<init>"); init.ret()
    base.finish(init)

    def body(mb):
        mb.emit(Op.NEW, "B3")
        mb.emit(Op.DUP)
        mb.invoke(Op.INVOKESPECIAL, "B3", "<init>")
        mb.emit(Op.CHECKCAST, "Object")   # upcast fine
        mb.emit(Op.INSTANCEOF, "B3")
        mb.retval()

    classes = _main_class(body, extra=[base.build()])
    jvm, thread = run_main(classes, "Main")
    assert thread.result == 1


def test_bad_cast_raises():
    a = ClassBuilder("CA")
    init = a.method("<init>")
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Object", "<init>"); init.ret()
    a.finish(init)
    b = ClassBuilder("CB")
    init = b.method("<init>")
    init.load(0); init.invoke(Op.INVOKESPECIAL, "Object", "<init>"); init.ret()
    b.finish(init)

    def body(mb):
        mb.emit(Op.NEW, "CA")
        mb.emit(Op.DUP)
        mb.invoke(Op.INVOKESPECIAL, "CA", "<init>")
        mb.emit(Op.CHECKCAST, "CB")
        mb.const(0)
        mb.retval()

    classes = _main_class(body, extra=[a.build(), b.build()])
    with pytest.raises(ClassCastError):
        run_main(classes, "Main")


def test_null_getfield_raises():
    def body(mb):
        mb.const(None)
        mb.emit(Op.GETFIELD, "Point", "x")
        mb.retval()
    classes = _main_class(body, extra=[_point_class()])
    with pytest.raises(NullPointerError):
        run_main(classes, "Main")


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------
def test_array_create_store_load_length():
    def body(mb):
        arr = mb.alloc_local()
        mb.const(5)
        mb.emit(Op.NEWARRAY, "int")
        mb.store(arr)
        mb.load(arr); mb.const(2); mb.const(42)
        mb.emit(Op.ARRSTORE)
        mb.load(arr); mb.const(2)
        mb.emit(Op.ARRLOAD)
        mb.load(arr)
        mb.emit(Op.ARRAYLENGTH)
        mb.emit(Op.ADD)
        mb.retval()
    assert run_expr(body) == 47


def test_array_default_values():
    def body(mb):
        mb.const(3)
        mb.emit(Op.NEWARRAY, "double")
        mb.const(1)
        mb.emit(Op.ARRLOAD)
        mb.retval()
    assert run_expr(body, ret="double") == 0.0


def test_array_bounds_raise():
    def body(mb):
        mb.const(3)
        mb.emit(Op.NEWARRAY, "int")
        mb.const(3)
        mb.emit(Op.ARRLOAD)
        mb.retval()
    with pytest.raises(ArrayIndexError):
        run_expr(body)


def test_ref_array_holds_objects():
    def body(mb):
        arr = mb.alloc_local()
        mb.const(2)
        mb.emit(Op.NEWARRAY, "Point")
        mb.store(arr)
        mb.load(arr); mb.const(0)
        mb.emit(Op.NEW, "Point")
        mb.emit(Op.DUP)
        mb.const(1); mb.const(2)
        mb.invoke(Op.INVOKESPECIAL, "Point", "<init>")
        mb.emit(Op.ARRSTORE)
        mb.load(arr); mb.const(0)
        mb.emit(Op.ARRLOAD)
        mb.invoke(Op.INVOKEVIRTUAL, "Point", "sum")
        mb.retval()
    classes = _main_class(body, extra=[_point_class()])
    jvm, thread = run_main(classes, "Main")
    assert thread.result == 3


# ---------------------------------------------------------------------------
# Natives: Math, Sys, String
# ---------------------------------------------------------------------------
def test_math_sqrt():
    def body(mb):
        mb.const(16.0)
        mb.invoke(Op.INVOKESTATIC, "Math", "sqrt")
        mb.retval()
    assert run_expr(body, ret="double") == 4.0


def test_math_pow_and_imax():
    def body(mb):
        mb.const(2.0); mb.const(10.0)
        mb.invoke(Op.INVOKESTATIC, "Math", "pow")
        mb.emit(Op.D2I)
        mb.const(99)
        mb.invoke(Op.INVOKESTATIC, "Math", "imax")
        mb.retval()
    assert run_expr(body) == 1024


def test_sys_print_collects_output():
    def body(mb):
        mb.const("hello ")
        mb.const(7)
        mb.emit(Op.CONCAT)
        mb.invoke(Op.INVOKESTATIC, "Sys", "print")
        mb.const(0)
        mb.retval()
    classes = _main_class(body)
    jvm, thread = run_main(classes, "Main")
    assert jvm.output == ["hello 7"]


def test_string_methods():
    def body(mb):
        mb.const("hello")
        mb.invoke(Op.INVOKEVIRTUAL, "String", "length")
        mb.const("hello")
        mb.const(1)
        mb.invoke(Op.INVOKEVIRTUAL, "String", "charAt")
        mb.emit(Op.ADD)
        mb.retval()
    assert run_expr(body) == 5 + ord("e")


def test_method_with_params_static():
    cb = ClassBuilder("Util")
    m = cb.method("add3", params=["int", "int", "int"], ret="int", flags=["static"])
    m.load(0); m.load(1); m.emit(Op.ADD)
    m.load(2); m.emit(Op.ADD)
    m.retval()
    cb.finish(m)

    def body(mb):
        mb.const(1); mb.const(2); mb.const(3)
        mb.invoke(Op.INVOKESTATIC, "Util", "add3")
        mb.retval()

    classes = _main_class(body, extra=[cb.build()])
    jvm, thread = run_main(classes, "Main")
    assert thread.result == 6


def test_recursion():
    cb = ClassBuilder("Fib")
    m = cb.method("fib", params=["int"], ret="int", flags=["static"])
    base = m.label()
    m.load(0); m.const(2)
    m.if_cmp("lt", base)
    m.load(0); m.const(1); m.emit(Op.SUB)
    m.invoke(Op.INVOKESTATIC, "Fib", "fib")
    m.load(0); m.const(2); m.emit(Op.SUB)
    m.invoke(Op.INVOKESTATIC, "Fib", "fib")
    m.emit(Op.ADD)
    m.retval()
    m.mark(base)
    m.load(0)
    m.retval()
    cb.finish(m)

    def body(mb):
        mb.const(12)
        mb.invoke(Op.INVOKESTATIC, "Fib", "fib")
        mb.retval()

    classes = _main_class(body, extra=[cb.build()])
    jvm, thread = run_main(classes, "Main")
    assert thread.result == 144
