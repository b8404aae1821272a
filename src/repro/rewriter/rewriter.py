"""The rewriter driver: original class files → distributed application.

Mirrors Figure 1 of the paper: the input is the compiled (possibly
pre-existing) application bytecode; the output is the ``javasplit.*``
class hierarchy with all seven transformations applied, plus the
metadata the runtime needs (serializer specs, class-id registry, static
holder gids).  Source code never enters this pipeline.

Pass order matters and is fixed here:

1. rename classes into the parallel ``javasplit`` hierarchy;
2. substitute thread-start call sites with the spawn handler;
3. substitute monitor instructions and wait/notify call sites;
4. generate ``C_static`` holders, strip statics, rewrite accesses;
5. insert access checks before every remaining heap access;
6. generate serializer specs and the array-type descriptors;
7. verify everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dsm.directory import ClassIdRegistry
from ..dsm.serialization import ClassSpec
from ..jvm.classfile import ClassFile
from ..jvm.errors import ClassFormatError
from ..jvm.verifier import verify_classfiles
from .access_checks import FieldTable, insert_access_checks
from .check_elim import eliminate_redundant_read_checks
from .array_wrapper import collect_array_types
from .bootstrap import build_runtime_classes
from .naming import PREFIX, rename_class, rename_type
from .serial_gen import build_specs
from .static_transform import (
    generate_holders,
    rewrite_static_accesses,
    strip_statics,
)
from .sync_rewrite import rewrite_synchronization
from .thread_rewrite import rewrite_thread_starts


@dataclass
class RewriteResult:
    """Everything the distributed runtime needs to run the application."""

    classfiles: Dict[str, ClassFile]
    specs: Dict[str, ClassSpec]
    registry: ClassIdRegistry
    static_gids: Dict[str, Tuple[int, str]]
    static_holder_count: int
    main_class: Optional[str]
    stats: Dict[str, int] = field(default_factory=dict)

    def all_classfiles(self) -> List[ClassFile]:
        return list(self.classfiles.values())


def rewrite_application(
    app_classfiles: List[ClassFile],
    check_elim: int = 0,
) -> RewriteResult:
    """Rewrite a compiled application for distributed execution.

    ``check_elim`` selects the access-check elimination level: 0 = none
    (the default, like the paper's prototype), 1 = the §6.2 straight-
    line redundant-read-check pass, 2 = region-based dataflow + loop
    hoisting (what the tiered JIT consumes; see
    :mod:`repro.rewriter.check_elim`)."""
    for cf in app_classfiles:
        if cf.name.startswith(PREFIX):
            raise ClassFormatError(
                f"class {cf.name} is already rewritten"
            )
    renamed = [rename_class(cf) for cf in app_classfiles]
    runtime_classes = build_runtime_classes()
    table: Dict[str, ClassFile] = {}
    for cf in renamed + runtime_classes:
        if cf.name in table:
            raise ClassFormatError(f"duplicate class {cf.name}")
        table[cf.name] = cf

    stats = {
        "classes": len(renamed),
        "thread_starts": 0,
        "monitors": 0,
        "wait_notify": 0,
        "static_accesses": 0,
        "statics_moved": 0,
        "read_checks": 0,
        "write_checks": 0,
        "volatile_accesses": 0,
    }

    for cf in renamed:
        stats["thread_starts"] += rewrite_thread_starts(cf, table)
        sync_counts = rewrite_synchronization(cf, table)
        stats["monitors"] += sync_counts["monitors"]
        stats["wait_notify"] += sync_counts["wait_notify"]

    holders, static_gids = generate_holders(
        {cf.name: cf for cf in renamed})
    for holder in holders:
        table[holder.name] = holder
    for cf in renamed:
        stats["statics_moved"] += strip_statics(cf)
        stats["static_accesses"] += rewrite_static_accesses(cf, static_gids)

    field_table = FieldTable(table)
    for cf in renamed + holders:
        counts = insert_access_checks(cf, field_table)
        stats["read_checks"] += counts["read"]
        stats["write_checks"] += counts["write"]
        stats["volatile_accesses"] += counts["volatile"]

    if check_elim not in (0, 1, 2):
        raise ValueError(f"check_elim must be 0, 1 or 2, got {check_elim!r}")
    stats["checks_eliminated"] = 0
    if check_elim:
        for cf in renamed:
            stats["checks_eliminated"] += eliminate_redundant_read_checks(
                cf, table, level=check_elim
            )

    specs = build_specs(table)
    array_types = collect_array_types(table)
    registry = ClassIdRegistry(list(table) + sorted(array_types))

    verify_classfiles(table.values())

    main_class = None
    for cf in renamed:
        m = cf.methods.get("main")
        if m is not None and m.is_static:
            main_class = cf.name
            break

    return RewriteResult(
        classfiles=table,
        specs=specs,
        registry=registry,
        static_gids=static_gids,
        static_holder_count=len(static_gids),
        main_class=main_class,
        stats=stats,
    )
