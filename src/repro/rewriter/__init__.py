"""Bytecode instrumentation (the paper's §4).

Transforms compiled application class files into the distributed
``javasplit.*`` application: access checks before every heap access,
DSM synchronization handlers, distributed thread creation, static-field
holders, per-class serializers, and the hand-written rewritten bootstrap
classes.
"""

from .access_checks import FieldTable, insert_access_checks
from .array_wrapper import collect_array_types
from .check_elim import eliminate_redundant_read_checks
from .bootstrap import (
    JS_OBJECT,
    JS_THREAD,
    RT,
    build_runtime_classes,
    register_rewritten_natives,
)
from .naming import PREFIX, original_name, rename_class, rename_type
from .remap import expand_code
from .rewriter import RewriteResult, rewrite_application
from .serial_gen import build_specs
from .static_transform import (
    StaticHolderInfo,
    generate_holders,
    holder_class_name,
    rewrite_static_accesses,
    strip_statics,
)
from .sync_rewrite import rewrite_synchronization
from .thread_rewrite import rewrite_thread_starts

__all__ = [
    "FieldTable", "insert_access_checks",
    "collect_array_types",
    "JS_OBJECT", "JS_THREAD", "RT",
    "build_runtime_classes", "register_rewritten_natives",
    "PREFIX", "original_name", "rename_class", "rename_type",
    "expand_code",
    "RewriteResult", "rewrite_application",
    "eliminate_redundant_read_checks",
    "build_specs",
    "StaticHolderInfo", "generate_holders", "holder_class_name",
    "rewrite_static_accesses", "strip_statics",
    "rewrite_synchronization",
    "rewrite_thread_starts",
]
