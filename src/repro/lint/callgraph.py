"""Whole-program symbol table and call graph for simlint.

One :class:`ModuleSummary` is extracted per module in a single AST walk:
its imports (for the module dependency graph and name resolution) and a
:class:`FunctionInfo` per top-level function and per method. Summaries
are pure data — serializable, cheap, and a function of the module source
alone — so :mod:`repro.lint.cache` can persist them keyed on the file's
content hash and warm runs never re-parse.

On top of the summaries, :class:`repro.lint.program.Program` runs three
fixpoint propagations:

* **process classification** — a function is a *process helper* if it is
  a generator, or returns the result of calling one (directly, or of a
  known ``Comm``/``Resource``-style generator method). Calling a process
  helper without ``yield from`` is the silent no-op the SL6xx family
  flags.
* **collective signatures** — each function's ordered list of MPI
  collective kinds, with calls to other project functions expanded
  transitively (cycle-safe). SL7xx compares these across rank-dependent
  branches.
* **unit signatures** — parameter and return units, read from the
  ``_us`` / ``_gbs`` suffix convention and *propagated* through call
  sites: an unsuffixed parameter that is passed into a suffixed one
  inherits its unit, so a ``_gbs`` value flowing into a ``_us`` slot via
  an intermediate helper still trips SL304.

Call targets are resolved conservatively: plain names against the
defining module (following ``from x import y`` aliases and re-exports),
``alias.attr`` against imported modules, and ``self.meth`` against the
enclosing class. Anything else — arbitrary receivers, dynamic dispatch —
stays unresolved and produces no interprocedural findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.check_units import suffix_of, unit_of
from repro.lint.check_yieldfrom import _gen_helper_name
from repro.lint.check_collectives import _collective_name

#: Bump whenever summary extraction changes shape or semantics: it salts
#: the on-disk summary/findings cache keys.
SUMMARY_SCHEMA = 5


# -- call / return descriptors ---------------------------------------------
#
# Serializable tagged tuples (lists once round-tripped through JSON —
# always compare via tuple(...)):
#
#   target spec:   ("name", f) | ("mod", alias, attr) | ("self", meth)
#   arg descriptor: ("name", ident) | ("unit", suffix) | ("other",)
#   return evidence: ("call", spec) | ("gen_helper",) | ("unit", suffix)
#                    | ("other",)
#   seq item:      ("coll", kind) | ("call", spec)
#   decorator:     ("name", ident) | ("call", ident, first_str_arg_or_"")
#   instance:      local name → target spec of its constructor call


@dataclass
class CallSite:
    """One resolved-candidate call inside a function body."""

    spec: tuple  # target spec
    lineno: int
    col: int
    args: List[tuple]  # positional arg descriptors
    kwargs: Dict[str, tuple]  # keyword arg descriptors

    def to_dict(self) -> dict:
        return {
            "spec": list(self.spec),
            "lineno": self.lineno,
            "col": self.col,
            "args": [list(a) for a in self.args],
            "kwargs": {k: list(v) for k, v in self.kwargs.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CallSite":
        return cls(
            spec=tuple(d["spec"]),
            lineno=d["lineno"],
            col=d["col"],
            args=[tuple(a) for a in d["args"]],
            kwargs={k: tuple(v) for k, v in d["kwargs"].items()},
        )


@dataclass
class FunctionInfo:
    """Summary of one function or method."""

    qualname: str  # "f" or "Cls.meth"
    lineno: int
    end_lineno: int
    is_generator: bool
    is_method: bool
    params: List[str]  # declared order, including self/cls
    calls: List[CallSite] = field(default_factory=list)
    returns: List[tuple] = field(default_factory=list)  # return evidence
    seq: List[tuple] = field(default_factory=list)  # ordered collectives/calls
    decorators: List[tuple] = field(default_factory=list)  # decorator specs

    @property
    def value_params(self) -> List[str]:
        """Parameters excluding a leading self/cls on methods."""
        if self.is_method and self.params and self.params[0] in ("self", "cls"):
            return self.params[1:]
        return self.params

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "end_lineno": self.end_lineno,
            "is_generator": self.is_generator,
            "is_method": self.is_method,
            "params": self.params,
            "calls": [c.to_dict() for c in self.calls],
            "returns": [list(r) for r in self.returns],
            "seq": [list(s) for s in self.seq],
            "decorators": [list(d) for d in self.decorators],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionInfo":
        return cls(
            qualname=d["qualname"],
            lineno=d["lineno"],
            end_lineno=d["end_lineno"],
            is_generator=d["is_generator"],
            is_method=d["is_method"],
            params=d["params"],
            calls=[CallSite.from_dict(c) for c in d["calls"]],
            returns=[tuple(r) for r in d["returns"]],
            seq=[tuple(s) for s in d["seq"]],
            decorators=[tuple(x) for x in d.get("decorators", [])],
        )


@dataclass
class ModuleSummary:
    """Everything the interprocedural passes need from one module."""

    module: str  # dotted name, e.g. "repro.lint.core"
    path: str
    imports: List[str] = field(default_factory=list)  # dotted module names
    aliases: Dict[str, str] = field(default_factory=dict)  # local → dotted target
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SUMMARY_SCHEMA,
            "module": self.module,
            "path": self.path,
            "imports": self.imports,
            "aliases": self.aliases,
            "functions": {k: f.to_dict() for k, f in self.functions.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModuleSummary":
        return cls(
            module=d["module"],
            path=d["path"],
            imports=d["imports"],
            aliases=d["aliases"],
            functions={
                k: FunctionInfo.from_dict(f) for k, f in d["functions"].items()
            },
        )


# -- module naming ----------------------------------------------------------

def module_name_for(path: "str | Path") -> str:
    """Dotted module name for a file path.

    The segment after the last ``src`` component is the package root
    (``src/repro/mpi/comm.py`` → ``repro.mpi.comm``); other trees use
    their full relative path (``tests/lint/test_simlint.py`` →
    ``tests.lint.test_simlint``). ``__init__.py`` names the package.
    """
    p = Path(path)
    parts = list(p.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src"):][1:] or parts[-1:]
    parts = [x for x in parts if x not in (".", "..", "/")]
    return ".".join(parts) if parts else p.stem


# -- summary extraction ------------------------------------------------------

def _arg_descriptor(node: ast.AST) -> tuple:
    if isinstance(node, ast.Name):
        sfx = suffix_of(node.id)
        return ("unit", node.id, sfx) if sfx else ("name", node.id)
    u = unit_of(node)
    if u:
        return ("unit", u[0], u[1])
    return ("other",)


def _decorator_spec(dec: ast.expr) -> Optional[tuple]:
    """Serializable spec for one decorator expression."""
    if isinstance(dec, ast.Name):
        return ("name", dec.id)
    if isinstance(dec, ast.Attribute):
        return ("name", dec.attr)
    if isinstance(dec, ast.Call):
        func = dec.func
        ident = None
        if isinstance(func, ast.Name):
            ident = func.id
        elif isinstance(func, ast.Attribute):
            ident = func.attr
        if ident is None:
            return None
        first = ""
        for arg in dec.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                first = arg.value
            break
        return ("call", ident, first)
    return None


def _call_spec(call: ast.Call, class_name: Optional[str]) -> Optional[tuple]:
    """Resolution candidate for a call target, or None if hopeless."""
    func = call.func
    if isinstance(func, ast.Name):
        return ("name", func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base = func.value.id
        if base == "self" and class_name:
            return ("self", func.attr)
        return ("mod", base, func.attr)
    return None


class _FunctionVisitor:
    """Extracts one FunctionInfo from a function body."""

    def __init__(self, func: ast.FunctionDef, qualname: str, class_name: Optional[str]):
        self.func = func
        self.class_name = class_name
        self.info = FunctionInfo(
            qualname=qualname,
            lineno=func.lineno,
            end_lineno=getattr(func, "end_lineno", func.lineno) or func.lineno,
            is_generator=False,
            is_method=class_name is not None,
            params=[a.arg for a in func.args.posonlyargs + func.args.args],
        )
        for dec in func.decorator_list:
            spec = _decorator_spec(dec)
            if spec is not None:
                self.info.decorators.append(spec)

    def run(self) -> FunctionInfo:
        events: List[Tuple[int, int, str, object]] = []
        stack: List[ast.AST] = list(self.func.body)[::-1]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested scope: summarised separately (not at all)
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.info.is_generator = True
            elif isinstance(node, ast.Return) and node.value is not None:
                self.info.returns.append(_return_evidence(node.value, self.class_name))
            elif isinstance(node, ast.Call):
                self._record_call(node, events)
            stack.extend(list(ast.iter_child_nodes(node))[::-1])
        events.sort(key=lambda e: (e[0], e[1]))
        self.info.seq = [item for _, _, _, item in events]  # type: ignore[misc]
        return self.info

    def _record_call(self, node: ast.Call, events: list) -> None:
        coll = _collective_name(node)
        if coll is not None:
            events.append((node.lineno, node.col_offset, "coll", ("coll", coll)))
            return
        spec = _call_spec(node, self.class_name)
        if spec is None:
            return
        site = CallSite(
            spec=spec,
            lineno=node.lineno,
            col=node.col_offset,
            args=[_arg_descriptor(a) for a in node.args],
            kwargs={
                kw.arg: _arg_descriptor(kw.value)
                for kw in node.keywords
                if kw.arg is not None
            },
        )
        self.info.calls.append(site)
        events.append((node.lineno, node.col_offset, "call", ("call", spec)))


def _return_evidence(value: ast.AST, class_name: Optional[str]) -> tuple:
    if isinstance(value, ast.Call):
        if _gen_helper_name(value) is not None:
            return ("gen_helper",)
        spec = _call_spec(value, class_name)
        if spec is not None:
            return ("call", spec)
        return ("other",)
    u = unit_of(value)
    if u:
        return ("unit", u[1])
    return ("other",)


def summarize_module(tree: ast.Module, module: str, path: str) -> ModuleSummary:
    """Extract the interprocedural summary of one parsed module."""
    summary = ModuleSummary(module=module, path=str(path))
    pkg = module.rsplit(".", 1)[0] if "." in module else ""
    for node in tree.body:
        _collect_imports(node, pkg, summary)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            summary.functions[node.name] = _FunctionVisitor(
                node, node.name, None
            ).run()
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    qual = f"{node.name}.{item.name}"
                    summary.functions[qual] = _FunctionVisitor(
                        item, qual, node.name
                    ).run()
    summary.imports = sorted(set(summary.imports))
    return summary


def _collect_imports(node: ast.stmt, pkg: str, summary: ModuleSummary) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            summary.imports.append(alias.name)
            summary.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:  # relative import: resolve against this package
            anchor = summary.module.split(".")
            # level 1 = current package (drop the module leaf), etc.
            anchor = anchor[: len(anchor) - node.level]
            base = ".".join(anchor + ([node.module] if node.module else []))
        if not base:
            return
        summary.imports.append(base)
        for alias in node.names:
            if alias.name == "*":
                continue
            summary.aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    elif isinstance(node, (ast.If, ast.Try)):  # guarded imports (TYPE_CHECKING…)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                _collect_imports(child, pkg, summary)


# -- whole-program index -----------------------------------------------------

class SymbolTable:
    """Resolution over a set of module summaries."""

    #: Cap on re-export chases (``from .core import f`` hops).
    MAX_HOPS = 8

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        #: dotted module name → summary
        self.modules = summaries

    # -- name resolution ----------------------------------------------------
    def resolve_symbol(self, module: str, name: str) -> Optional[str]:
        """``module:qualname`` key for ``name`` as seen from ``module``."""
        for _ in range(self.MAX_HOPS):
            summary = self.modules.get(module)
            if summary is None:
                return None
            if name in summary.functions:
                return f"{module}:{name}"
            target = summary.aliases.get(name)
            if target is None:
                # ``import repro.x`` aliases the root package only
                return None
            if target in self.modules:  # alias names a module (import x as y)
                return None
            if "." not in target:
                return None
            module, name = target.rsplit(".", 1)
        return None

    def resolve_call(
        self, caller_module: str, spec: Sequence, class_name_hint: Optional[str] = None
    ) -> Optional[str]:
        """Resolve a call-target spec to a function key, or None."""
        spec = tuple(spec)
        if not spec:
            return None
        kind = spec[0]
        if kind == "name":
            return self.resolve_symbol(caller_module, spec[1])
        if kind == "mod":
            _, alias, attr = spec
            summary = self.modules.get(caller_module)
            if summary is None:
                return None
            # ``Cls.method(...)`` on a class defined in this very module
            if f"{alias}.{attr}" in summary.functions:
                return f"{caller_module}:{alias}.{attr}"
            target = summary.aliases.get(alias, alias)
            # ``import repro.mpi.comm as c`` → alias maps to dotted module;
            # ``from repro import mpi`` → target "repro.mpi" (a module).
            if target in self.modules:
                return self.resolve_symbol(target, attr)
            # ``from x import Cls`` then ``Cls.method(...)``
            if target and "." in target:
                mod, leaf = target.rsplit(".", 1)
                if mod in self.modules:
                    qual = f"{leaf}.{attr}"
                    if qual in self.modules[mod].functions:
                        return f"{mod}:{qual}"
            return None
        if kind == "self":
            if class_name_hint is None:
                return None
            summary = self.modules.get(caller_module)
            if summary is None:
                return None
            qual = f"{class_name_hint}.{spec[1]}"
            if qual in summary.functions:
                return f"{caller_module}:{qual}"
            return None
        return None

    def function(self, key: str) -> Optional[FunctionInfo]:
        module, _, qual = key.partition(":")
        summary = self.modules.get(module)
        return summary.functions.get(qual) if summary else None

    def all_function_keys(self) -> List[str]:
        return [
            f"{m}:{q}"
            for m, s in self.modules.items()
            for q in s.functions
        ]

    # -- dependency graph ---------------------------------------------------
    def project_imports(self, module: str) -> Set[str]:
        """Imports of ``module`` that are modules of this program.

        ``from repro.mpi import comm``-style member imports surface as an
        import of the package; member modules referenced through aliases
        are added too.
        """
        summary = self.modules.get(module)
        if summary is None:
            return set()
        deps: Set[str] = set()
        for imp in summary.imports:
            if imp in self.modules:
                deps.add(imp)
        for target in summary.aliases.values():
            mod = target.rsplit(".", 1)[0] if "." in target else target
            if mod in self.modules:
                deps.add(mod)
            if target in self.modules:
                deps.add(target)
        deps.discard(module)
        return deps

    def dependency_closure(self, module: str) -> Set[str]:
        """``module`` plus every project module it transitively imports."""
        seen: Set[str] = set()
        stack = [module]
        while stack:
            m = stack.pop()
            if m in seen:
                continue
            seen.add(m)
            stack.extend(self.project_imports(m) - seen)
        return seen


# -- propagation passes ------------------------------------------------------

class Classifier:
    """Fixpoint classifications over a :class:`SymbolTable`."""

    #: Fixpoint iteration cap (propagation chains longer than this are
    #: pathological; analysis stays sound, merely less complete).
    MAX_ROUNDS = 12

    def __init__(self, table: SymbolTable):
        self.table = table
        self.process_keys: Set[str] = set()
        self.param_units: Dict[str, Dict[str, str]] = {}
        self.return_units: Dict[str, Optional[str]] = {}
        self._sigs: Dict[str, Tuple[str, ...]] = {}
        self._classify_process()
        self._infer_units()

    # -- process helpers ----------------------------------------------------
    def _classify_process(self) -> None:
        keys = self.table.all_function_keys()
        for key in keys:
            info = self.table.function(key)
            if info and info.is_generator:
                self.process_keys.add(key)
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for key in keys:
                if key in self.process_keys:
                    continue
                info = self.table.function(key)
                if info is None:
                    continue
                module = key.partition(":")[0]
                cls_hint = self._class_hint(info)
                for ev in info.returns:
                    if ev[0] == "gen_helper":
                        self.process_keys.add(key)
                        changed = True
                        break
                    if ev[0] == "call":
                        target = self.table.resolve_call(module, ev[1], cls_hint)
                        if target in self.process_keys:
                            self.process_keys.add(key)
                            changed = True
                            break
            if not changed:
                break

    @staticmethod
    def _class_hint(info: FunctionInfo) -> Optional[str]:
        return info.qualname.split(".", 1)[0] if info.is_method else None

    def is_process(self, key: Optional[str]) -> bool:
        return key is not None and key in self.process_keys

    # -- collective signatures ----------------------------------------------
    def collective_signature(self, key: str) -> Tuple[str, ...]:
        """The function's transitive, ordered collective kinds."""
        return self._sig(key, frozenset())

    def _sig(self, key: str, visiting: frozenset) -> Tuple[str, ...]:
        if key in self._sigs:
            return self._sigs[key]
        if key in visiting:
            return ()  # cycle back-edge: contributes nothing
        info = self.table.function(key)
        if info is None:
            return ()
        module = key.partition(":")[0]
        cls_hint = self._class_hint(info)
        out: List[str] = []
        for item in info.seq:
            if item[0] == "coll":
                out.append(item[1])
            else:
                target = self.table.resolve_call(module, item[1], cls_hint)
                if target is not None:
                    out.extend(self._sig(target, visiting | {key}))
        sig = tuple(out)
        if not visiting:  # only memoize complete (non-cycle-truncated) results
            self._sigs[key] = sig
        return sig

    # -- unit signatures -----------------------------------------------------
    def _infer_units(self) -> None:
        keys = self.table.all_function_keys()
        for key in keys:
            info = self.table.function(key)
            assert info is not None
            self.param_units[key] = {
                p: s for p in info.params if (s := suffix_of(p))
            }
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for key in keys:
                info = self.table.function(key)
                if info is None:
                    continue
                module = key.partition(":")[0]
                cls_hint = self._class_hint(info)
                units = self.param_units[key]
                for site in info.calls:
                    target = self.table.resolve_call(module, site.spec, cls_hint)
                    if target is None:
                        continue
                    for pname, desc in self._bind(site, target):
                        if desc[0] != "name":
                            continue
                        arg_name = desc[1]
                        if arg_name in units or arg_name not in info.params:
                            continue
                        callee_unit = self.param_units.get(target, {}).get(pname)
                        if callee_unit:
                            units[arg_name] = callee_unit
                            changed = True
            if not changed:
                break
        for key in keys:
            self.return_units[key] = self._return_unit(key, frozenset())

    def _bind(self, site: CallSite, target_key: str):
        """Yield (callee param name, arg descriptor) pairs for a site."""
        info = self.table.function(target_key)
        if info is None:
            return
        params = info.value_params
        for i, desc in enumerate(site.args):
            if i < len(params):
                yield params[i], desc
        for kw, desc in site.kwargs.items():
            if kw in info.params:
                yield kw, desc

    def _return_unit(self, key: str, visiting: frozenset) -> Optional[str]:
        if key in visiting:
            return None
        info = self.table.function(key)
        if info is None:
            return None
        name_sfx = suffix_of(info.qualname.rsplit(".", 1)[-1])
        if name_sfx:
            return name_sfx
        module = key.partition(":")[0]
        cls_hint = self._class_hint(info)
        units: Set[str] = set()
        for ev in info.returns:
            if ev[0] == "unit":
                units.add(ev[1])
            elif ev[0] == "call":
                target = self.table.resolve_call(module, ev[1], cls_hint)
                if target is not None:
                    u = self._return_unit(target, visiting | {key})
                    if u:
                        units.add(u)
                    else:
                        return None  # mixed/unknown evidence: stay silent
            else:
                return None
        return units.pop() if len(units) == 1 else None
