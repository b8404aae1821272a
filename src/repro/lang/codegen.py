"""Code generation: annotated MiniJava AST → mini-JVM class files.

The checker has already resolved names, inserted conversions and
assigned local slots, so this pass is a mostly-mechanical lowering.
``synchronized`` methods and blocks are desugared here into explicit
MONITORENTER/MONITOREXIT pairs (with exits emitted on every early exit
path), which is what the JavaSplit rewriter later transforms — the
paper's rewriter likewise treats synchronized methods and monitorenter
instructions uniformly (§4).
"""

from __future__ import annotations

from typing import List, Optional

from ..jvm.assembler import ClassBuilder, Label, MethodBuilder
from ..jvm.bytecode import TERMINATORS, Op
from ..jvm.classfile import ClassFile
from ..jvm.intrinsics import bootstrap_classfiles
from ..jvm.verifier import verify_classfiles
from .ast_nodes import (
    ArrayIndex, ArrayLength, Assign, Binary, Block, BoolLit, Break, Call,
    Cast, ClassDecl, Continue, Conv, DoubleLit, Expr, ExprStmt, FieldAccess,
    For, If, InstanceOf, IntLit, MethodDecl, New, NewArray, NullLit, Program,
    Return, Stmt, StrLit, SuperCall, SyncBlock, This, Unary, VarDecl, VarRef,
    While,
)
from .parser import parse
from .types import ClassTable, TypeError_, check_program

_CMP_OPS = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_NEG_COND = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "gt": "le", "le": "gt"}
_BINARY_OPS = {
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "%": Op.REM,
    "<<": Op.SHL, ">>": Op.SHR, ">>>": Op.USHR,
    "&": Op.AND, "|": Op.OR, "^": Op.XOR,
}


class CompileError(SyntaxError):
    """A lowering-time error (checker violations surface earlier)."""
    pass


class _LoopCtx:
    __slots__ = ("break_label", "continue_label", "sync_depth")

    def __init__(self, break_label: Label, continue_label: Label, sync_depth: int):
        self.break_label = break_label
        self.continue_label = continue_label
        self.sync_depth = sync_depth


class _MethodGen:
    def __init__(self, gen: "CodeGen", decl: ClassDecl, m: MethodDecl) -> None:
        self.gen = gen
        self.decl = decl
        self.m = m
        flags = set()
        if m.is_static:
            flags.add("static")
        if m.is_synchronized:
            flags.add("synchronized")
        self.mb = MethodBuilder(
            m.name,
            params=[p.type for p in m.params],
            ret=m.ret,
            flags=flags,
            max_locals=getattr(m, "max_locals", len(m.params) + 1),
        )
        # The checker already numbered declared locals; temps allocated by
        # this pass (sync-block lock slots) must start above them.
        self.mb._next_local = max(
            self.mb._next_local, getattr(m, "max_locals", 0)
        )
        # Stack of local slots holding monitors entered by sync blocks /
        # the synchronized-method prologue.
        self.sync_slots: List[int] = []
        self.loops: List[_LoopCtx] = []

    # ------------------------------------------------------------------
    def generate(self) -> None:
        """Lower one method body into its MethodBuilder and finish it."""
        m = self.m
        assert m.body is not None
        if m.is_constructor and not (
            m.body.stmts and isinstance(m.body.stmts[0], SuperCall)
        ):
            self._emit_implicit_super()
        if m.is_synchronized:
            self.mb.load(0)
            self.mb.emit(Op.MONITORENTER, line=m.line)
            self.sync_slots.append(0)
        self.emit_block(m.body)
        # Fall-through return for void methods.
        if m.ret == "void":
            self._emit_sync_exits(0, m.line)
            self.mb.ret()
        else:
            # The checker proved all paths return; terminate any residual
            # unreachable fall-through for the verifier.
            if not self.mb._code or self.mb._code[-1].op not in TERMINATORS:
                self.mb.const(_zero_of(m.ret))
                self._emit_sync_exits(0, m.line)
                self.mb.retval()
        self.gen.cb_for(self.decl).finish(self.mb)

    def _emit_implicit_super(self) -> None:
        sig = self.gen.table.find_method(self.decl.super_name, "<init>")
        if sig is None or sig.params:
            raise CompileError(
                f"{self.decl.name}: superclass {self.decl.super_name} has no "
                f"no-arg constructor; call super(...) explicitly"
            )
        self.mb.load(0)
        self.mb.invoke(Op.INVOKESPECIAL, sig.declaring, "<init>")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def emit_block(self, block: Block) -> None:
        """Lower a statement list."""
        for stmt in block.stmts:
            self.emit_stmt(stmt)

    def emit_stmt(self, stmt: Stmt) -> None:
        """Lower one statement."""
        mb = self.mb
        if isinstance(stmt, Block):
            self.emit_block(stmt)
        elif isinstance(stmt, VarDecl):
            if stmt.init is not None:
                self.emit_expr(stmt.init)
            else:
                mb.const(_zero_of(stmt.type), )
            mb.store(stmt.slot)  # type: ignore[attr-defined]
        elif isinstance(stmt, ExprStmt):
            expr = stmt.expr
            assert expr is not None
            if isinstance(expr, Assign):
                self.emit_assign(expr, want_value=False)
            elif isinstance(expr, Call):
                self.emit_call(expr)
                if expr.type != "void":
                    mb.emit(Op.POP)
            else:
                self.emit_expr(expr)
                if expr.type != "void":
                    mb.emit(Op.POP)
        elif isinstance(stmt, If):
            else_l = mb.label("else")
            end_l = mb.label("endif")
            self.emit_cond(stmt.cond, else_l, jump_if=False)
            self.emit_stmt(stmt.then)
            if stmt.otherwise is not None:
                mb.goto(end_l)
                mb.mark(else_l)
                self.emit_stmt(stmt.otherwise)
                mb.mark(end_l)
            else:
                mb.mark(else_l)
        elif isinstance(stmt, While):
            top = mb.label("while")
            end = mb.label("endwhile")
            mb.mark(top)
            self.emit_cond(stmt.cond, end, jump_if=False)
            self.loops.append(_LoopCtx(end, top, len(self.sync_slots)))
            self.emit_stmt(stmt.body)
            self.loops.pop()
            mb.goto(top)
            mb.mark(end)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                self.emit_stmt(stmt.init)
            top = mb.label("for")
            cont = mb.label("forupd")
            end = mb.label("endfor")
            mb.mark(top)
            if stmt.cond is not None:
                self.emit_cond(stmt.cond, end, jump_if=False)
            self.loops.append(_LoopCtx(end, cont, len(self.sync_slots)))
            self.emit_stmt(stmt.body)
            self.loops.pop()
            mb.mark(cont)
            if stmt.update is not None:
                upd = stmt.update
                if isinstance(upd, Assign):
                    self.emit_assign(upd, want_value=False)
                else:
                    self.emit_expr(upd)
                    if upd.type != "void":
                        mb.emit(Op.POP)
            mb.goto(top)
            mb.mark(end)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self.emit_expr(stmt.value)
                self._emit_sync_exits(0, stmt.line)
                mb.retval()
            else:
                self._emit_sync_exits(0, stmt.line)
                mb.ret()
        elif isinstance(stmt, Break):
            ctx = self.loops[-1]
            self._emit_sync_exits(ctx.sync_depth, stmt.line)
            mb.goto(ctx.break_label)
        elif isinstance(stmt, Continue):
            ctx = self.loops[-1]
            self._emit_sync_exits(ctx.sync_depth, stmt.line)
            mb.goto(ctx.continue_label)
        elif isinstance(stmt, SyncBlock):
            slot = self.mb.alloc_local()
            self.emit_expr(stmt.lock)
            mb.store(slot)
            mb.load(slot)
            mb.emit(Op.MONITORENTER, line=stmt.line)
            self.sync_slots.append(slot)
            self.emit_stmt(stmt.body)
            self.sync_slots.pop()
            mb.load(slot)
            mb.emit(Op.MONITOREXIT, line=stmt.line)
        elif isinstance(stmt, SuperCall):
            mb.load(0)
            for arg in stmt.args:
                self.emit_expr(arg)
            mb.invoke(Op.INVOKESPECIAL, stmt.super_class, "<init>")  # type: ignore[attr-defined]
        else:  # pragma: no cover
            raise CompileError(f"unknown statement {type(stmt).__name__}")

    def _emit_sync_exits(self, down_to: int, line: int) -> None:
        """Exit monitors entered above ``down_to`` (innermost first) on an
        early exit path; the entries stay on ``sync_slots`` because the
        structured path still needs its own exit."""
        for slot in reversed(self.sync_slots[down_to:]):
            self.mb.load(slot)
            self.mb.emit(Op.MONITOREXIT, line=line)

    # ------------------------------------------------------------------
    # Conditions (short-circuit, no materialization)
    # ------------------------------------------------------------------
    def emit_cond(self, expr: Expr, target: Label, jump_if: bool) -> None:
        """Emit a branch to ``target`` when ``expr`` == ``jump_if``."""
        mb = self.mb
        if isinstance(expr, BoolLit):
            if expr.value == jump_if:
                mb.goto(target)
            return
        if isinstance(expr, Unary) and expr.op == "!":
            self.emit_cond(expr.operand, target, not jump_if)
            return
        if isinstance(expr, Binary):
            if expr.op == "&&":
                if jump_if:
                    skip = mb.label("and_skip")
                    self.emit_cond(expr.left, skip, jump_if=False)
                    self.emit_cond(expr.right, target, jump_if=True)
                    mb.mark(skip)
                else:
                    self.emit_cond(expr.left, target, jump_if=False)
                    self.emit_cond(expr.right, target, jump_if=False)
                return
            if expr.op == "||":
                if jump_if:
                    self.emit_cond(expr.left, target, jump_if=True)
                    self.emit_cond(expr.right, target, jump_if=True)
                else:
                    skip = mb.label("or_skip")
                    self.emit_cond(expr.left, skip, jump_if=True)
                    self.emit_cond(expr.right, target, jump_if=False)
                    mb.mark(skip)
                return
            if expr.op in _CMP_OPS and not getattr(expr, "str_concat", False):
                cond = _CMP_OPS[expr.op]
                if not jump_if:
                    cond = _NEG_COND[cond]
                # x == null / null == x: compare against null via IF_CMP
                self.emit_expr(expr.left)
                self.emit_expr(expr.right)
                mb.if_cmp(cond, target)
                return
        # Generic boolean value
        self.emit_expr(expr)
        mb.if_("ne" if jump_if else "eq", target)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def emit_expr(self, expr: Expr) -> None:
        """Lower one expression, leaving its value on the stack."""
        mb = self.mb
        if isinstance(expr, IntLit):
            mb.const(expr.value)
        elif isinstance(expr, DoubleLit):
            mb.const(expr.value)
        elif isinstance(expr, BoolLit):
            mb.const(1 if expr.value else 0)
        elif isinstance(expr, StrLit):
            mb.const(expr.value)
        elif isinstance(expr, NullLit):
            mb.const(None)
        elif isinstance(expr, This):
            mb.load(0)
        elif isinstance(expr, VarRef):
            if expr.resolved == "local":
                mb.load(expr.slot)
            elif expr.resolved == "field":
                mb.load(0)
                mb.emit(Op.GETFIELD, expr.klass, expr.name, line=expr.line)
            elif expr.resolved == "static":
                mb.emit(Op.GETSTATIC, expr.klass, expr.name, line=expr.line)
            else:  # pragma: no cover - checker resolves everything
                raise CompileError(f"unresolved variable {expr.name}")
        elif isinstance(expr, FieldAccess):
            if expr.klass == "<arraylength>":
                self.emit_expr(expr.obj)
                mb.emit(Op.ARRAYLENGTH)
            elif expr.obj is None:
                mb.emit(Op.GETSTATIC, expr.klass, expr.name, line=expr.line)
            else:
                self.emit_expr(expr.obj)
                mb.emit(Op.GETFIELD, expr.klass, expr.name, line=expr.line)
        elif isinstance(expr, ArrayIndex):
            self.emit_expr(expr.arr)
            self.emit_expr(expr.index)
            mb.emit(Op.ARRLOAD, line=expr.line)
        elif isinstance(expr, Call):
            self.emit_call(expr)
        elif isinstance(expr, New):
            mb.emit(Op.NEW, expr.klass, line=expr.line)
            mb.emit(Op.DUP)
            for arg in expr.args:
                self.emit_expr(arg)
            mb.invoke(Op.INVOKESPECIAL, expr.klass, "<init>")
        elif isinstance(expr, NewArray):
            self.emit_expr(expr.length)
            mb.emit(Op.NEWARRAY, expr.elem_type, line=expr.line)
        elif isinstance(expr, Binary):
            self.emit_binary(expr)
        elif isinstance(expr, Unary):
            if expr.op == "-":
                self.emit_expr(expr.operand)
                mb.emit(Op.NEG)
            elif expr.op == "~":
                self.emit_expr(expr.operand)
                mb.const(-1)
                mb.emit(Op.XOR)
            else:  # '!' — materialize
                self._materialize_bool(expr)
        elif isinstance(expr, Assign):
            self.emit_assign(expr, want_value=True)
        elif isinstance(expr, Conv):
            self.emit_expr(expr.operand)
            mb.emit(Op.I2D if expr.kind == "i2d" else Op.D2I)
        elif isinstance(expr, Cast):
            self.emit_expr(expr.operand)
            src = expr.operand.type
            dst = expr.target_type
            if dst == "int" and src == "double":
                mb.emit(Op.D2I, line=expr.line)
            elif dst == "double" and src == "int":
                mb.emit(Op.I2D, line=expr.line)
            elif dst not in ("int", "double"):
                mb.emit(Op.CHECKCAST, dst, line=expr.line)
        elif isinstance(expr, InstanceOf):
            self.emit_expr(expr.operand)
            mb.emit(Op.INSTANCEOF, expr.klass)
        else:  # pragma: no cover
            raise CompileError(f"unknown expression {type(expr).__name__}")

    def emit_binary(self, expr: Binary) -> None:
        """Lower a binary operator application."""
        mb = self.mb
        if getattr(expr, "str_concat", False):
            self.emit_expr(expr.left)
            self.emit_expr(expr.right)
            mb.emit(Op.CONCAT)
            return
        if expr.op in ("&&", "||") or expr.op in _CMP_OPS:
            self._materialize_bool(expr)
            return
        self.emit_expr(expr.left)
        self.emit_expr(expr.right)
        mb.emit(_BINARY_OPS[expr.op], line=expr.line)

    def _materialize_bool(self, expr: Expr) -> None:
        mb = self.mb
        true_l = mb.label("btrue")
        end_l = mb.label("bend")
        self.emit_cond(expr, true_l, jump_if=True)
        mb.const(0)
        mb.goto(end_l)
        mb.mark(true_l)
        mb.const(1)
        mb.mark(end_l)

    def emit_call(self, expr: Call) -> None:
        """Lower a method call (static / virtual / implicit-this)."""
        mb = self.mb
        if expr.kind == "static":
            for arg in expr.args:
                self.emit_expr(arg)
            mb.invoke(Op.INVOKESTATIC, expr.klass, expr.name)
        elif expr.kind == "virtual_this":
            mb.load(0)
            for arg in expr.args:
                self.emit_expr(arg)
            mb.invoke(Op.INVOKEVIRTUAL, expr.klass, expr.name)
        else:  # virtual
            self.emit_expr(expr.obj)
            for arg in expr.args:
                self.emit_expr(arg)
            mb.invoke(Op.INVOKEVIRTUAL, expr.klass, expr.name)

    def emit_assign(self, expr: Assign, want_value: bool) -> None:
        """Lower an assignment; want_value keeps a copy on the stack."""
        mb = self.mb
        target = expr.target
        if isinstance(target, VarRef):
            if target.resolved == "local":
                self.emit_expr(expr.value)
                if want_value:
                    mb.emit(Op.DUP)
                mb.store(target.slot)
                return
            if target.resolved == "static":
                self.emit_expr(expr.value)
                if want_value:
                    mb.emit(Op.DUP)
                mb.emit(Op.PUTSTATIC, target.klass, target.name, line=expr.line)
                return
            # implicit this field
            mb.load(0)
            self.emit_expr(expr.value)
            if want_value:
                mb.emit(Op.DUP_X1)
            mb.emit(Op.PUTFIELD, target.klass, target.name, line=expr.line)
            return
        if isinstance(target, FieldAccess):
            if target.obj is None:
                self.emit_expr(expr.value)
                if want_value:
                    mb.emit(Op.DUP)
                mb.emit(Op.PUTSTATIC, target.klass, target.name, line=expr.line)
                return
            self.emit_expr(target.obj)
            self.emit_expr(expr.value)
            if want_value:
                mb.emit(Op.DUP_X1)
            mb.emit(Op.PUTFIELD, target.klass, target.name, line=expr.line)
            return
        if isinstance(target, ArrayIndex):
            if want_value:
                raise CompileError(
                    f"array-element assignment cannot be used as a value "
                    f"(line {expr.line})"
                )
            self.emit_expr(target.arr)
            self.emit_expr(target.index)
            self.emit_expr(expr.value)
            mb.emit(Op.ARRSTORE, line=expr.line)
            return
        raise CompileError(f"bad assignment target (line {expr.line})")


def _zero_of(t: str):
    if t == "double":
        return 0.0
    if t in ("int", "boolean"):
        return 0
    return None


class CodeGen:
    """Drives lowering of a checked program to class files."""
    def __init__(self, program: Program, table: ClassTable) -> None:
        self.program = program
        self.table = table
        self._builders: dict[str, ClassBuilder] = {}

    def cb_for(self, decl: ClassDecl) -> ClassBuilder:
        """The (cached) ClassBuilder for a class declaration."""
        cb = self._builders.get(decl.name)
        if cb is None:
            cb = ClassBuilder(decl.name, super_name=decl.super_name)
            for f in decl.fields:
                cb.field(f.name, f.type, is_static=f.is_static, init=f.init,
                         volatile=f.volatile)
            self._builders[decl.name] = cb
        return cb

    def generate(self) -> List[ClassFile]:
        """Lower every class; returns the class files."""
        out: List[ClassFile] = []
        for decl in self.program.classes:
            cb = self.cb_for(decl)
            has_ctor = any(m.is_constructor for m in decl.methods)
            if not has_ctor:
                self._emit_default_ctor(decl)
            for m in decl.methods:
                _MethodGen(self, decl, m).generate()
            out.append(cb.build())
        return out

    def _emit_default_ctor(self, decl: ClassDecl) -> None:
        sig = self.table.find_method(decl.super_name, "<init>")
        if sig is None or sig.params:
            raise CompileError(
                f"{decl.name} needs an explicit constructor (superclass "
                f"{decl.super_name} has no no-arg constructor)"
            )
        mb = MethodBuilder("<init>", params=[], ret="void", flags=set())
        mb.load(0)
        mb.invoke(Op.INVOKESPECIAL, sig.declaring, "<init>")
        mb.ret()
        self.cb_for(decl).classfile.add_method(mb.build())


def compile_program(program: Program) -> List[ClassFile]:
    """Check + lower a parsed program; the result is verified bytecode."""
    table = check_program(program)
    classfiles = CodeGen(program, table).generate()
    verify_classfiles(bootstrap_classfiles() + classfiles)
    return classfiles


def compile_source(source: str) -> List[ClassFile]:
    """One-shot: MiniJava source text → verified class files."""
    return compile_program(parse(source))
