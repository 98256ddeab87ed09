"""Project index: whole-tree facts for cross-module rules.

The file-local checkers (phase 1 of a lint run) see one module at a
time; the conventions that keep golden traces byte-stable — isolated
RNG streams, the ``tracer=None → NULL_TRACER`` seam, attach/detach
pairing, no wall-clock reach-through — are *cross-module* contracts.
:class:`ProjectIndex` is the shared substrate for checking them: one
pass over the :class:`FileContext` objects phase 1 already parsed
builds

* a module import graph (absolute imports, relative imports resolved
  against the importer's package);
* per-module symbol tables with re-export origins, so a use of
  ``repro.obs.NULL_TRACER`` canonicalizes to its defining module;
* per-class summaries: ``__init__`` tracer-seam facts, attribute-call
  sites with flow flags (inside ``finally``, statement nesting depth),
  referenced symbols, and span emission;
* module-level constant dicts (the RNG-stream registry).

Project checkers (phase 2) subclass :class:`ProjectChecker` and run
against the finished index; their findings obey the same inline
suppressions as file-local ones.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.lint.context import FileContext
from repro.devtools.lint.findings import RULES, Finding

#: modules allowed to touch the host clock / real threads: the declared
#: seams between the deterministic simulation and the real machine.
#: ``core/checkpoint.py`` owns the async-persist worker thread (its
#: clock is injectable); ``cluster/storage.py`` owns the
#: MonotonicClock/VirtualClock seam those threads read through.  IMP001
#: treats them as taint absorbers and CLK001 skips them; everything
#: else sim-owned must route time through the engine.
BLESSED_SEAMS = frozenset({
    "repro.cluster.storage",
    "repro.core.checkpoint",
})

#: method names that conventionally run on every teardown path; a
#: release call inside one counts as exit-safe for pairing rules.
TEARDOWN_METHODS = frozenset({
    "close", "aclose", "__exit__", "__aexit__", "__del__",
    "stop", "shutdown", "detach", "disconnect", "release",
})

_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers")


def dotted_text(node: ast.AST) -> str:
    """Best-effort textual dotted form of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_text(node.value)
        return f"{base}.{node.attr}" if base else ""
    if isinstance(node, ast.Call):
        base = dotted_text(node.func)
        return f"{base}()" if base else ""
    return ""


def module_name_for(path: Path) -> str:
    """Dotted module name by ascending enclosing packages on disk."""
    resolved = Path(path)
    parts = [] if resolved.stem == "__init__" else [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


def module_name_from_path_text(path: str) -> str | None:
    """Module name for repo-layout paths (``.../repro/a/b.py``).

    Works on path *strings* (no filesystem access), so
    :class:`FileContext` can classify in-memory sources; returns None
    for paths outside a ``repro`` tree.
    """
    parts = re.split(r"[\\/]", path)
    if not parts or "repro" not in parts:
        return None
    parts = parts[parts.index("repro"):]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One attribute call, with the flow context pairing rules need."""

    method: str      # enclosing function name ("<module>" at top level)
    attr: str        # called attribute, e.g. "add_listener"
    receiver: str    # textual receiver chain, e.g. "self.engine"
    line: int
    col: int
    in_finally: bool  # lexically inside any ``finally:`` block
    top_level: bool   # direct statement of the enclosing function body


@dataclass(frozen=True)
class ConstDict:
    """A module-level ``NAME = {"str": int, ...}`` literal."""

    line: int
    col: int
    values: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)


@dataclass
class ClassSummary:
    """Everything phase-2 rules need to know about one class."""

    name: str
    line: int
    col: int
    bases: tuple[str, ...] = ()
    is_dataclass: bool = False
    methods: tuple[str, ...] = ()
    #: attribute-call sites anywhere in the class body
    calls: tuple[CallSite, ...] = ()
    #: resolved dotted names the class body references via imports
    uses: frozenset[str] = frozenset()
    #: any identifier/attribute mentioning "tracer" in the body
    mentions_tracer: bool = False
    # -- __init__ tracer-seam facts -----------------------------------
    has_tracer_param: bool = False
    tracer_default_none: bool = False
    tracer_line: int = 0
    tracer_col: int = 0
    #: resolved dotted fallbacks from ``tracer or X`` /
    #: ``tracer if tracer is not None else X`` in ``__init__``
    tracer_fallbacks: tuple[str, ...] = ()
    #: ``tracer`` forwarded as a call argument inside ``__init__``
    tracer_delegated: bool = False


@dataclass
class ModuleInfo:
    """Summary of one parsed module."""

    name: str
    path: Path
    ctx: FileContext
    #: absolute dotted modules this module imports
    module_imports: frozenset[str] = frozenset()
    #: local name -> (origin module, origin symbol) for re-export chains
    export_origins: dict[str, tuple[str, str]] = field(
        default_factory=dict)
    #: symbols defined (not imported) at module level
    defined: frozenset[str] = frozenset()
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    const_dicts: dict[str, ConstDict] = field(default_factory=dict)
    #: attribute-call sites outside any class
    calls: tuple[CallSite, ...] = ()

    @property
    def sim_owned(self) -> bool:
        return self.ctx.sim_owned

    @property
    def blessed_seam(self) -> bool:
        return self.name in BLESSED_SEAMS


# -- extraction ------------------------------------------------------------


def _import_targets(node: ast.stmt, module: str,
                    is_package: bool = False) -> list[str]:
    """Absolute dotted module targets of one import statement."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            return [node.module] if node.module else []
        # relative: climb `level` packages from the importing module
        package = module.split(".")
        if not is_package:
            package = package[:-1]
        base = package[:len(package) - node.level + 1]
        target = ".".join(base + ([node.module] if node.module else []))
        return [target] if target else []
    return []


def _stmt_expr_nodes(stmt: ast.stmt) -> Iterable[ast.AST]:
    """AST nodes of one statement, excluding nested block bodies."""
    for fieldname, value in ast.iter_fields(stmt):
        if fieldname in _BLOCK_FIELDS:
            continue
        if isinstance(value, ast.AST):
            yield from ast.walk(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    yield from ast.walk(item)


def _collect_calls(body: Sequence[ast.stmt], method: str,
                   out: list[CallSite], in_finally: bool = False,
                   depth: int = 0) -> None:
    """Record attribute calls in ``body`` with flow flags.

    ``with`` bodies keep the parent's depth (they execute
    unconditionally); conditional and loop bodies nest.  Nested
    function/class scopes are skipped — they are summarized separately.
    """
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for node in _stmt_expr_nodes(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                out.append(CallSite(
                    method=method, attr=node.func.attr,
                    receiver=dotted_text(node.func.value),
                    line=node.lineno, col=node.col_offset,
                    in_finally=in_finally, top_level=depth == 0))
        if isinstance(stmt, ast.Try):
            _collect_calls(stmt.body, method, out, in_finally,
                           depth + 1)
            for handler in stmt.handlers:
                _collect_calls(handler.body, method, out, in_finally,
                               depth + 1)
            _collect_calls(stmt.orelse, method, out, in_finally,
                           depth + 1)
            _collect_calls(stmt.finalbody, method, out, True, depth + 1)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            _collect_calls(stmt.body, method, out, in_finally, depth)
        elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor,
                               ast.While)):
            _collect_calls(stmt.body, method, out, in_finally,
                           depth + 1)
            _collect_calls(stmt.orelse, method, out, in_finally,
                           depth + 1)
        elif isinstance(stmt, ast.Match):
            for case in stmt.cases:
                _collect_calls(case.body, method, out, in_finally,
                               depth + 1)


def _tracer_arg(init: ast.FunctionDef) -> tuple[ast.arg | None, bool]:
    """The ``tracer`` parameter of ``__init__`` and whether its
    default is the literal ``None``."""
    args = init.args
    positional = args.posonlyargs + args.args
    defaults: list[ast.expr | None] = [None] * (
        len(positional) - len(args.defaults)) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        if arg.arg == "tracer":
            return arg, (isinstance(default, ast.Constant)
                         and default.value is None)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == "tracer":
            return arg, (isinstance(kw_default, ast.Constant)
                         and kw_default.value is None)
    return None, False


def _tracer_facts(init: ast.FunctionDef, ctx: FileContext
                  ) -> tuple[tuple[str, ...], bool]:
    """(resolved normalization fallbacks, delegated-as-argument)."""
    fallbacks: list[str] = []
    delegated = False

    def _is_tracer(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "tracer"

    def _fallback(node: ast.AST) -> None:
        dotted, imported = ctx.resolve(node)
        if dotted and imported:
            fallbacks.append(dotted)

    for node in ast.walk(init):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            if node.values and _is_tracer(node.values[0]):
                for other in node.values[1:]:
                    _fallback(other)
        elif isinstance(node, ast.IfExp):
            test_names = {n.id for n in ast.walk(node.test)
                          if isinstance(n, ast.Name)}
            if "tracer" in test_names:
                if _is_tracer(node.body):
                    _fallback(node.orelse)
                elif _is_tracer(node.orelse):
                    _fallback(node.body)
        elif isinstance(node, ast.Call):
            if any(_is_tracer(arg) for arg in node.args) or any(
                    _is_tracer(kw.value) for kw in node.keywords):
                delegated = True
    return tuple(fallbacks), delegated


def _summarize_class(node: ast.ClassDef, ctx: FileContext
                     ) -> ClassSummary:
    calls: list[CallSite] = []
    methods: list[str] = []
    uses: set[str] = set()
    mentions_tracer = False
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(child.name)
            _collect_calls(child.body, child.name, calls)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if "tracer" in sub.id.lower():
                mentions_tracer = True
            dotted, imported = ctx.resolve(sub)
            if imported and dotted:
                uses.add(dotted)
        elif isinstance(sub, ast.Attribute):
            if "tracer" in sub.attr.lower():
                mentions_tracer = True

    summary = ClassSummary(
        name=node.name, line=node.lineno, col=node.col_offset,
        bases=tuple(filter(None, (dotted_text(base)
                                  for base in node.bases))),
        is_dataclass=any(
            dotted_text(dec).split(".")[-1].rstrip("()") == "dataclass"
            or (isinstance(dec, ast.Call)
                and dotted_text(dec.func).split(".")[-1] == "dataclass")
            for dec in node.decorator_list),
        methods=tuple(methods), calls=tuple(calls),
        uses=frozenset(uses), mentions_tracer=mentions_tracer)

    init = next((child for child in node.body
                 if isinstance(child, ast.FunctionDef)
                 and child.name == "__init__"), None)
    if init is not None:
        arg, default_none = _tracer_arg(init)
        if arg is not None:
            fallbacks, delegated = _tracer_facts(init, ctx)
            summary.has_tracer_param = True
            summary.tracer_default_none = default_none
            summary.tracer_line = arg.lineno
            summary.tracer_col = arg.col_offset
            summary.tracer_fallbacks = fallbacks
            summary.tracer_delegated = delegated
    return summary


def _summarize_module(ctx: FileContext) -> ModuleInfo:
    path = Path(ctx.path)
    name = module_name_for(path)
    info = ModuleInfo(name=name, path=path, ctx=ctx)
    is_package = path.stem == "__init__"
    imports: set[str] = set()
    defined: set[str] = set()
    module_calls: list[CallSite] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(_import_targets(node, name, is_package))
        if isinstance(node, ast.ImportFrom):
            targets = _import_targets(node, name, is_package)
            origin = targets[0] if targets else None
            if origin:
                for alias in node.names:
                    info.export_origins[alias.asname or alias.name] = (
                        origin, alias.name)
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            info.classes[node.name] = _summarize_class(node, ctx)
            defined.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
            _collect_calls(node.body, node.name, module_calls)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            defined.update(names)
            value = node.value
            if (len(names) == 1 and isinstance(value, ast.Dict)
                    and value.keys
                    and all(isinstance(k, ast.Constant)
                            and isinstance(k.value, str)
                            for k in value.keys)
                    and all(isinstance(v, ast.Constant)
                            and isinstance(v.value, int)
                            and not isinstance(v.value, bool)
                            for v in value.values)):
                info.const_dicts[names[0]] = ConstDict(
                    line=value.lineno, col=value.col_offset,
                    values=tuple((k.value, v.value) for k, v in
                                 zip(value.keys, value.values)))
    _collect_calls(ctx.tree.body, "<module>", module_calls)
    info.module_imports = frozenset(imports)
    info.defined = frozenset(defined)
    info.calls = tuple(module_calls)
    return info


# -- the index -------------------------------------------------------------


@dataclass
class ProjectIndex:
    """Cross-module facts for one lint run."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)

    @classmethod
    def build(cls, contexts: Iterable[FileContext]) -> "ProjectIndex":
        """Index the files phase 1 parsed, keyed by module name."""
        index = cls()
        for ctx in contexts:
            info = _summarize_module(ctx)
            index.modules[info.name] = info
        return index

    # -- symbol resolution -------------------------------------------------

    def canonical(self, module: str, symbol: str,
                  _seen: frozenset[str] = frozenset()) -> str:
        """Follow re-export chains to the defining ``module.symbol``."""
        key = f"{module}.{symbol}"
        info = self.modules.get(module)
        if info is None or key in _seen:
            return key
        origin = info.export_origins.get(symbol)
        if origin is None:
            return key
        return self.canonical(origin[0], origin[1], _seen | {key})

    def canonical_use(self, dotted: str) -> str:
        """Canonicalize a resolved use like ``repro.obs.NULL_TRACER``."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                resolved = self.canonical(prefix, parts[cut])
                return ".".join([resolved, *parts[cut + 1:]])
        return dotted

    def project_module(self, dotted: str) -> str | None:
        """The longest indexed-module prefix of an import target."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix
        return None


# -- phase-2 checker protocol ----------------------------------------------


class ProjectChecker:
    """Base class for one cross-module rule bound to an index."""

    #: rule code, e.g. ``"IMP001"`` (subclasses must override)
    code = ""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.findings: list[Finding] = []

    def run(self) -> None:
        """Populate :attr:`findings` from the index."""

    def report(self, module: ModuleInfo, line: int, col: int,
               message: str, code: str | None = None) -> None:
        code = code or self.code
        if module.ctx.is_suppressed(code, line):
            return
        self.findings.append(Finding(
            code=code, message=message, path=module.ctx.path,
            line=line, col=col, end_line=line, end_col=col,
            snippet=module.ctx.snippet(line)))


def run_project_checkers(
        index: ProjectIndex,
        checker_types: Iterable[type[ProjectChecker]]) -> list[Finding]:
    """Run phase-2 checkers; findings sorted for stable output."""
    findings: list[Finding] = []
    for cls in checker_types:
        checker = cls(index)
        if not checker.code or checker.code not in RULES:
            raise ValueError(
                f"{cls.__name__} has unregistered code "
                f"{checker.code!r}")
        checker.run()
        findings.extend(checker.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
