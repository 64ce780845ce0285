"""Repository scanning and syntax-tree extraction of documentable objects.

A repository is modeled as a set of Python files, each yielding class and
function definitions identified by a path-like qualified id:

    <relative file path>/<dotted object path with "/" separators>

so a method ``m`` on class ``C`` in ``demo/a.py`` has id ``demo/a.py/C/m``.
Parsing is pure text-to-data; nothing here touches the network or runs Git.
A ``ParseCache`` keeps parses by Git blob id, so a file is parsed once per
content.
"""

from __future__ import annotations

import ast
import binascii
import contextlib
import fnmatch
import hashlib
import json
import logging
import os
import re
import stat
import sys
from itertools import accumulate
from json.decoder import scanstring
from pathlib import Path, PurePosixPath
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import UsageError

logger = logging.getLogger(__name__)

SOURCE_SUFFIX = ".py"

CLASS = "Class"
FUNCTION = "Function"

# Leading parameters with these names are treated as the receiver and excluded.
# Name-based (rather than position-based) so that a definition parsed in
# isolation reports the same parameters as one parsed in class context.
_RECEIVER_NAMES = frozenset({"self", "cls"})

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

# what follows a header's ":" when its body starts on a later line
_BODY_BELOW = re.compile(r"[ \t\f]*[#\n]")


def normalize_source(text: str) -> str:
    """Normalize line endings to LF and strip trailing whitespace per line."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return "\n".join(line.rstrip() for line in lines)


def source_digest(text: str) -> str:
    """SHA-256 of the normalized text, in ``base64url``. Stable across platforms.

    Lone surrogates, which UTF-8 cannot encode, are passed through so that the
    digest is defined on every string; any other text hashes its UTF-8 bytes.
    """
    normalized = normalize_source(text)
    return base64url(hashlib.sha256(normalized.encode("utf-8", "surrogatepass")).digest())


_URLSAFE = bytes.maketrans(b"+/", b"-_")


def base64url(digest: bytes) -> str:
    """``digest`` in URL-safe base64 with no padding: the 32 bytes of a
    SHA-256 in 43 characters, none of which JSON escapes."""
    encoded = binascii.b2a_base64(digest, newline=False).rstrip(b"=")
    return encoded.translate(_URLSAFE).decode("ascii")


class CodeObject(NamedTuple):
    """One class or function definition extracted from a source file.

    It holds the text of its whole file, the one string that every object
    of the file shares, and the span of its snippet in that text, so that no
    object keeps a copy of its lines."""

    id: str
    kind: str  # CLASS or FUNCTION
    name: str
    # character offsets in text: the snippet's start, its header's end (just
    # past the ":", or the snippet's end when the body starts on that line),
    # and the snippet's end, exclusive
    span: tuple[int, int, int]
    text: str
    params: tuple[str, ...]
    has_return: bool
    parent_id: str
    source_hash: str = ""

    @property
    def snippet(self) -> str:
        """The definition's lines, decorators included, less the last
        line's newline: a slice of the file's text, taken on each read."""
        start, _, end = self.span
        return self.text[start:end]


class ImportBinding(NamedTuple):
    """A name bound by an import statement, resolved to an absolute module path.

    ``member`` is None when the binding names the module itself.
    """

    module: str
    member: str | None = None


class CallSite(NamedTuple):
    """A name-chain call expression found inside an object's body."""

    caller: str  # id of the innermost enclosing object
    chain: tuple[str, ...]  # base name followed by attribute names
    line: int


class Scope(NamedTuple):
    """Names bound directly in one lexical scope (file or object body)."""

    defs: dict[str, str]  # name -> object id
    imports: dict[str, ImportBinding]


class FileParse(NamedTuple):
    """Parse result for one file. ``objects`` preserves source order;
    ``blob`` is the Git blob id of the parsed text, when known. A file that
    does not parse has its ``parse_error`` and nothing else."""

    file: str
    objects: list[CodeObject]
    parse_error: str | None
    calls: list[CallSite]
    scopes: dict[str, Scope]
    blob: str | None = None


def module_name_for(file_path: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``util/b.py`` -> ``util.b``; ``util/__init__.py`` -> ``util``.
    """
    p = PurePosixPath(file_path)
    parts = list(p.parts)
    stem = p.name[: -len(SOURCE_SUFFIX)] if p.name.endswith(SOURCE_SUFFIX) else p.name
    if stem == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = stem
    return ".".join(parts)


def _package_parts(file_path: str) -> list[str]:
    """Parts of the package that relative imports are resolved against."""
    module = module_name_for(file_path)
    parts = module.split(".") if module else []
    if PurePosixPath(file_path).name == "__init__.py":
        return parts
    return parts[:-1]


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    if positional and positional[0] in _RECEIVER_NAMES:
        positional = positional[1:]
    names = positional
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _class_params(node: ast.ClassDef) -> tuple[str, ...]:
    for child in node.body:
        if isinstance(child, _DEF_NODES) and child.name == "__init__":
            return _function_params(child)
    return ()


class _Collector(ast.NodeVisitor):
    """Single-pass walk producing objects, scopes and call sites."""

    def __init__(self, file_path: str, text: str) -> None:
        self._text = text
        # the offset of each line's start, and one past the text's end; a
        # line ends at "\n" alone, as ast numbers lines, and not at the form
        # feeds and Unicode separators that str.splitlines also breaks at
        self._starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
        self._pkg_parts = _package_parts(file_path)
        # None marks a slot whose definition is still being walked, or one
        # that a later definition of the same id replaced
        self.objects: list[CodeObject | None] = []
        self.calls: list[CallSite] = []
        self.scopes: dict[str, Scope] = {file_path: Scope({}, {})}
        # ids of the scopes enclosing the walk; index 0 is the module scope
        self._stack: list[str] = [file_path]
        # has_return flag of the innermost body being walked; index 0, the
        # module level, is a throwaway
        self._returns: list[bool] = [False]

    # -- definitions ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> bool:
        return self._add_object(node, FUNCTION)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> bool:
        return self._add_object(node, FUNCTION)

    def visit_ClassDef(self, node: ast.ClassDef) -> bool:
        return self._add_object(node, CLASS)

    def _add_object(self, node: ast.AST, kind: str) -> bool:
        """Record one definition and walk it; returns its ``has_return``.

        A function has a return value when its own body returns a value or
        yields; nested definitions do not count. A class has one when any def
        directly in its body does. A definition of an id already defined in
        the same scope replaces the earlier one, as at runtime.
        """
        parent_id = self._stack[-1]
        obj_id = f"{parent_id}/{node.name}"
        if node.name in self.scopes[parent_id].defs:
            self._forget(obj_id)
        slot = len(self.objects)
        self.objects.append(None)  # filled in source order once the body is walked
        self.scopes[parent_id].defs[node.name] = obj_id
        self.scopes[obj_id] = Scope({}, {})

        # Decorators, bases and defaults execute in the parent scope; a yield
        # there belongs to no body, so it sets a throwaway flag.
        self._returns.append(False)
        for dec in node.decorator_list:
            self.visit(dec)
        if isinstance(node, ast.ClassDef):
            for expr in (*node.bases, *node.keywords):
                self.visit(expr)
        else:
            self.visit(node.args)
            if node.returns is not None:
                self.visit(node.returns)

        self._returns[-1] = False
        self._stack.append(obj_id)
        def_returns = False
        for stmt in node.body:
            if self.visit(stmt) and isinstance(stmt, _DEF_NODES):
                def_returns = True
        self._stack.pop()
        body_returns = self._returns.pop()
        has_return = def_returns if kind == CLASS else body_returns

        start = node.lineno
        if node.decorator_list:
            start = min(start, node.decorator_list[0].lineno)
        end = node.end_lineno or start
        first, stop = self._starts[start - 1], self._starts[end] - 1
        self.objects[slot] = CodeObject(
            id=obj_id,
            kind=kind,
            name=node.name,
            span=(first, self._header_end(node, stop), stop),
            text=self._text,
            params=_class_params(node) if kind == CLASS else _function_params(node),
            has_return=has_return,
            parent_id=parent_id,
            source_hash=source_digest(self._text[first:stop]),
        )
        return has_return

    def _header_end(self, node: ast.AST, stop: int) -> int:
        """The offset just past the ":" that ends a definition's header, or
        ``stop``, its snippet's end, when its body starts on that line.

        The scan starts where the header's last expression ends (or at its
        keyword, with none), so no string lies ahead of it before the ":",
        and a "#" there always opens a comment.
        """
        if isinstance(node, ast.ClassDef):
            exprs = [*node.bases, *node.keywords]
        else:
            exprs = [*ast.iter_child_nodes(node.args)]
            if node.returns is not None:
                exprs.append(node.returns)
        exprs += getattr(node, "type_params", ())
        line, col = max(
            ((e.end_lineno, e.end_col_offset) for e in exprs), default=(node.lineno, node.col_offset)
        )
        text, at = self._text, self._starts[line - 1]
        head = text[at : self._starts[line] - 1]
        # ast counts columns in UTF-8 bytes
        at += col if head.isascii() else len(head.encode("utf-8")[:col].decode("utf-8"))
        while text[at] != ":":
            at = text.index("\n", at) if text[at] == "#" else at + 1
        at += 1
        return at if _BODY_BELOW.match(text, at, stop) else stop

    def _forget(self, obj_id: str) -> None:
        """Drop a finished definition with its nested objects, calls and scopes.

        Its slots become tombstones rather than being deleted, so the slots
        of enclosing definitions still being walked do not move.
        """
        prefix = obj_id + "/"

        def dropped(oid: str) -> bool:
            return oid == obj_id or oid.startswith(prefix)

        for slot, obj in enumerate(self.objects):
            if obj is not None and dropped(obj.id):
                self.objects[slot] = None
        self.calls = [c for c in self.calls if not dropped(c.caller)]
        for scope_id in [s for s in self.scopes if dropped(s)]:
            del self.scopes[scope_id]

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._returns[-1] = True
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield | ast.YieldFrom) -> None:
        self._returns[-1] = True
        self.generic_visit(node)

    visit_YieldFrom = visit_Yield

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        scope = self.scopes[self._stack[-1]]
        for alias in node.names:
            if alias.asname:
                scope.imports[alias.asname] = ImportBinding(module=alias.name)
            else:
                first = alias.name.split(".")[0]
                scope.imports[first] = ImportBinding(module=first)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._import_base(node.module, node.level)
        if base is None:
            return
        scope = self.scopes[self._stack[-1]]
        for alias in node.names:
            if alias.name == "*":
                continue
            scope.imports[alias.asname or alias.name] = ImportBinding(module=base, member=alias.name)

    def _import_base(self, module: str | None, level: int) -> str | None:
        if level == 0:
            return module or ""
        hops = level - 1
        if hops > len(self._pkg_parts):
            return None  # relative import escapes the repository
        parts = self._pkg_parts[: len(self._pkg_parts) - hops]
        if module:
            parts = [*parts, *module.split(".")]
        return ".".join(parts)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        caller_id = self._stack[-1]
        if len(self._stack) > 1:  # module-level calls are out of scope
            chain = _flatten_chain(node.func)
            if chain is not None:
                self.calls.append(CallSite(caller=caller_id, chain=chain, line=node.lineno))
        self.generic_visit(node)


def _flatten_chain(node: ast.expr) -> tuple[str, ...] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None  # dynamic receiver; not resolvable statically


def parse_file(path: str, text: str) -> FileParse:
    """Parse one file's text, whose lines end in "\\n" (``source_text``).
    Its objects hold ``text`` itself. Syntax errors yield a FileParse with
    no objects."""
    try:
        tree = ast.parse(text, filename=path)
    except (SyntaxError, ValueError, RecursionError) as exc:
        lineno = getattr(exc, "lineno", None)
        where = f"{path}:{lineno}" if lineno else path
        return FileParse(path, [], f"{where}: {exc.msg if hasattr(exc, 'msg') else exc}", [], {})
    collector = _Collector(path, text)
    collector.visit(tree)
    objects = [o for o in collector.objects if o is not None]
    return FileParse(path, objects, None, collector.calls, collector.scopes)


def _is_ignored(rel_posix: str, ignore: Sequence[str]) -> bool:
    """True when the path, a directory above it or one of its components
    matches an ignore glob."""
    if not ignore:
        return False
    parts = rel_posix.split("/")
    names = {*parts, *("/".join(parts[:i]) for i in range(2, len(parts) + 1))}
    return any(fnmatch.fnmatch(name, pattern) for pattern in ignore for name in names)


def _is_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def is_source(rel: str, ignore: Sequence[str] = ()) -> bool:
    """True for a repo-relative posix path of a Python file that no hidden
    component (one starting with "."), no ignore glob and no byte that is not
    UTF-8 (a lone surrogate from ``os.fsdecode``) excludes."""
    return (
        rel.endswith(SOURCE_SUFFIX)
        and _is_utf8(rel)
        and not any(part.startswith(".") for part in rel.split("/"))
        and not _is_ignored(rel, ignore)
    )


class Sources(Mapping[str, tuple[str, str]]):
    """The blob id and text of each source file, by path in sorted order:
    ``{path: (blob id, text)}`` of the working tree or the index.

    Every blob id is known up front, in ``blobs``. A text that was not given
    is read on first use by ``reader``, which takes paths and returns their
    texts, and ``read`` reads those of many paths with one call of it, so a
    run reads only the texts it parses. ``close`` calls ``closer``, which
    ends the reader.
    """

    def __init__(
        self,
        blobs: dict[str, str],
        texts: dict[str, str],
        reader: Callable[[list[str]], list[str]] | None = None,
        closer: Callable[[], None] | None = None,
    ) -> None:
        self.blobs = blobs
        self._texts = texts
        self._reader = reader
        self._closer = closer

    def read(self, paths: Iterable[str]) -> None:
        """Read the texts of ``paths`` that are not read yet, all at once."""
        unread = [rel for rel in paths if rel not in self._texts]
        if unread:
            if self._reader is None:
                raise KeyError(unread[0])
            self._texts.update(zip(unread, self._reader(unread), strict=True))

    def close(self) -> None:
        if self._closer is not None:
            self._closer()

    def __getitem__(self, rel: str) -> tuple[str, str]:
        blob = self.blobs[rel]
        self.read([rel])
        return blob, self._texts[rel]

    def __iter__(self) -> Iterator[str]:
        return iter(self.blobs)

    def __len__(self) -> int:
        return len(self.blobs)


def scan_repository(root: str | Path, ignore: Sequence[str] = ()) -> Sources:
    """Blob id and text of every working-tree source file, by relative posix
    path in sorted order: the shape ``read_staged_text`` gives for the index.
    A file is a source when it passes ``is_source`` and is a regular file, as
    in the index; links are not sources. Hidden and ignored directories are
    not entered. A file that cannot be read stops the scan with an error
    naming it."""
    root = Path(root)
    if not root.is_dir():
        raise UsageError(f"not a directory: {root}")
    top = os.fspath(root)
    blobs: dict[str, str] = {}
    texts: dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(top):
        prefix = dirpath[len(top) :].lstrip(os.sep).replace(os.sep, "/")
        prefix += "/" if prefix else ""
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith(".") and not _is_ignored(prefix + d, ignore)
        )
        for name in filenames:
            rel = prefix + name
            if not is_source(rel, ignore):
                continue
            path = os.path.join(dirpath, name)
            try:
                if not stat.S_ISREG(os.lstat(path).st_mode):
                    continue
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                raise UsageError(f"cannot read {rel}: {exc}") from exc
            blobs[rel], texts[rel] = blob_id(data), source_text(data)
    return Sources(dict(sorted(blobs.items())), texts)


def source_text(data: bytes) -> str:
    """A source file's text: its bytes decoded as UTF-8, a leading byte
    order mark dropped, undecodable bytes replaced, and line endings made LF,
    as Python reads a source file. The working tree and the index both go
    through here, so the same blob always gives the same text."""
    text = data.decode("utf-8-sig", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def blob_id(data: bytes) -> str:
    """Git's object id of a blob holding these bytes (``git hash-object``)."""
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def write_atomically(path: Path, chunks: Iterable[bytes]) -> None:
    """Replace ``path`` with the bytes of ``chunks``, written one at a time to
    a temp file beside it that is then renamed over it, so a reader never
    finds part of a file. The file gets 0o666 less the umask, not a temp
    file's 0o600. On any failure the temp file is removed and the error raised."""
    import tempfile

    umask = os.umask(0)
    os.umask(umask)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-repodoc-")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(chunks)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


# Bump whenever parse_file can return something else for the same text, so
# that the parses cached by an older parser are misses, and so that the hook
# takes no file from a snapshot that an older parser saved. Version 2 gives
# source hashes in base64url; version 3 ends lines at "\n" alone, and caches
# snippet spans as character offsets; version 4 adds each header's end to
# the span, and drops a leading byte order mark.
PARSER_VERSION = 4


def parser_identity() -> str:
    """The parser version and the interpreter's ``cache_tag``, since
    ``ast.parse`` takes other syntax on other Python versions: a parse, or
    a snapshot, made under another identity may differ from this one's."""
    header = {"parser": PARSER_VERSION, "cache_tag": sys.implementation.cache_tag}
    return json.dumps(header, sort_keys=True)

# the parse cache's file name inside a repository's git directory
PARSE_CACHE_NAME = "repodoc-parse-cache.jsonl"


class ParseCache:
    """File parses of earlier runs, keyed by path and blob id.

    The cache is the JSON-lines file ``PARSE_CACHE_NAME`` in a repository's
    git directory, so that it never reaches a commit. Its first line is the
    ``parser_identity``; a file with another first line holds nothing. Each
    further line holds one file:
    ``[path, blob id, parse error, objects, calls, scopes]``. Object ids are
    stored as positions in the object list, and each snippet as its span in
    the text, which the objects of a hit share. A line that cannot be read
    is a miss, never an error, and so is a cache that cannot be written.
    ``ParseCache()``, with no git directory, caches nothing.
    """

    def __init__(self, git_dir: Path | None = None) -> None:
        self.path = None if git_dir is None else git_dir / PARSE_CACHE_NAME
        self.parsed = 0  # files parsed, that is, cache misses
        self._header = parser_identity() + "\n"
        self._loaded: dict[tuple[str, str], str] = {}  # (path, blob id) -> line
        self._kept: dict[tuple[str, str], str] = {}  # the lines the next save writes
        if self.path is not None:
            self._load(self.path)

    def _load(self, path: Path) -> None:
        # read line by line, so that the file is never held twice
        with contextlib.suppress(OSError, ValueError), path.open(
            encoding="utf-8", newline="\n"
        ) as handle:
            if handle.readline() != self._header:
                return
            for line in handle:
                with contextlib.suppress(ValueError, IndexError):
                    # a line opens with its key: ["<path>","<blob id>",
                    rel, end = scanstring(line, 2)
                    blob, _ = scanstring(line, end + 2)
                    self._loaded[rel, blob] = line if line.endswith("\n") else line + "\n"

    def parse(self, rel: str, blob: str, text: str) -> FileParse:
        """The parse of ``text``, the content of blob ``blob`` at ``rel``."""
        key = (rel, blob)
        line = self._loaded.get(key)
        if line is not None:
            try:
                parse = _decode_parse(rel, text, line)
            except (ValueError, TypeError, KeyError, IndexError, AttributeError):
                del self._loaded[key]  # so that the next save drops the line
            else:
                self._kept[key] = line
                return parse
        self.parsed += 1
        parse = parse_file(rel, text)
        if self.path is not None:
            line = _encode_parse(key, parse)
            if line is not None:
                self._kept[key] = line
        return parse._replace(blob=blob)

    def keep(self, rel: str, blob: str) -> None:
        """Keep the loaded line of blob ``blob`` at ``rel``, if there is one,
        for the next save, without decoding it: the run needs no parse of
        that file, but a later one will."""
        line = self._loaded.get((rel, blob))
        if line is not None:
            self._kept[rel, blob] = line

    def save(self) -> None:
        """Write the lines of this run's files, unless they are the ones
        loaded, and let go of all lines: the run's parsing is over."""
        kept, loaded = self._kept, self._loaded
        self._kept, self._loaded = {}, {}
        if self.path is None or kept.keys() == loaded.keys():
            return
        try:
            write_atomically(
                self.path, (line.encode("utf-8") for line in [self._header, *kept.values()])
            )
        except OSError as exc:
            logger.info("parse cache %s not written: %s", self.path, exc)


def _encode_parse(key: tuple[str, str], parse: FileParse) -> str | None:
    """One cache line for the parse, or None when it does not fit the layout
    that ``_decode_parse`` rebuilds: an object's id is its parent's id and its
    name, a parent comes before its children, and the scopes are the file's
    and then the objects', in order."""
    if parse.parse_error is not None:
        return json.dumps([*key, parse.parse_error, [], [], []], separators=(",", ":")) + "\n"
    index = {parse.file: -1}  # scope id -> position of its object; -1 for the file
    objects = []
    try:
        for pos, obj in enumerate(parse.objects):
            parent = index[obj.parent_id]
            if obj.id != f"{obj.parent_id}/{obj.name}":
                return None
            index[obj.id] = pos
            objects.append(
                [obj.name, obj.kind, parent, *obj.span, obj.params, obj.has_return, obj.source_hash]
            )
        if list(parse.scopes) != list(index):
            return None
        calls = [[index[c.caller], c.chain, c.line] for c in parse.calls]
        scopes = [
            [
                {name: index[oid] for name, oid in scope.defs.items()},
                {name: [b.module, b.member] for name, b in scope.imports.items()},
            ]
            for scope in parse.scopes.values()
        ]
    except KeyError:
        return None
    entry = [*key, None, objects, calls, scopes]
    return json.dumps(entry, separators=(",", ":")) + "\n"


def _decode_parse(rel: str, text: str, line: str) -> FileParse:
    """Rebuild the FileParse of one cache line; its objects hold ``text``."""
    _rel, blob, error, objects_data, calls_data, scopes_data = json.loads(line)
    if error is not None:
        return FileParse(rel, [], error, [], {}, blob)
    intern = sys.intern
    ids: list[str] = []
    objects = []
    for name, kind, parent, start, header_end, end, params, has_return, digest in objects_data:
        name = intern(name)
        parent_id = ids[parent] if parent >= 0 else rel
        obj_id = f"{parent_id}/{name}"
        ids.append(obj_id)
        kind, params = intern(kind), tuple(map(intern, params))
        objects.append(
            CodeObject(
                obj_id, kind, name, (start, header_end, end), text, params, has_return, parent_id, digest
            )
        )
    calls = [
        CallSite(ids[caller], tuple(map(intern, chain)), lineno)
        for caller, chain, lineno in calls_data
    ]
    scopes = {}
    for scope_id, (defs, imports) in zip([rel, *ids], scopes_data, strict=True):
        scopes[scope_id] = Scope(
            {intern(name): ids[pos] for name, pos in defs.items()},
            {
                intern(name): ImportBinding(
                    intern(module), member if member is None else intern(member)
                )
                for name, (module, member) in imports.items()
            },
        )
    return FileParse(rel, objects, None, calls, scopes, blob)


def parse_repository(
    sources: Mapping[str, tuple[str, str]], files: Iterable[str], cache: ParseCache | None = None
) -> list[FileParse]:
    """Parse the given paths of ``sources``, ``{path: (blob id, text)}`` of
    the working tree or the index, through the cache, in path order. The
    texts of ``Sources`` not read yet are read in one batch. The caller
    saves the cache once the run's parsing is over."""
    cache = cache or ParseCache()
    files = sorted(files)
    if isinstance(sources, Sources):
        sources.read(files)
    return [cache.parse(rel, *sources[rel]) for rel in files]
