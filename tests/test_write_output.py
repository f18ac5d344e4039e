"""`errors.write_output`, the one writer of every file gipad writes: its file
semantics, the rule that nothing else in the package opens a file or makes a
directory, and the names the benchmark's tracer wraps."""

import ast
import errno
import importlib
import os
import pathlib
import re
import stat

import numpy as np
import pytest

from gipad.errors import DataError, write_output

ROOT = pathlib.Path(__file__).resolve().parents[1]


def no_space(chunks):
    """`chunks` in turn, then the fault of a full disk."""
    yield from chunks
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestWriteOutput:
    def test_chunks_are_written_in_turn(self, tmp_path):
        path = tmp_path / "f.bin"
        write_output(path, [b"ab", memoryview(b"cd"), np.frombuffer(b"ef", np.uint8)])
        assert path.read_bytes() == b"abcdef"

    def test_overwrites_an_earlier_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"a longer earlier file")
        write_output(path, [b"new"])
        assert path.read_bytes() == b"new"

    def test_a_new_file_gets_the_mode_the_umask_gives(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_output(tmp_path / "f.bin", [b"x"])
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "f.bin").stat().st_mode) == 0o640

    def test_a_symlink_is_written_at_its_target(self, tmp_path):
        target = tmp_path / "real.csv"
        target.write_bytes(b"old")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_output(link, [b"new"])
        assert link.is_symlink()
        assert target.read_bytes() == b"new"

    def test_a_bare_filename_is_written_in_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_output("bare.txt", [b"x"])
        assert (tmp_path / "bare.txt").read_bytes() == b"x"

    def test_parent_directories_are_created(self, tmp_path):
        write_output(tmp_path / "a" / "b" / "f.txt", [b"x"])
        assert (tmp_path / "a" / "b" / "f.txt").read_bytes() == b"x"

    def test_a_write_fault_names_the_file_and_keeps_the_earlier_one(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"good")
        with pytest.raises(DataError, match=re.escape(f"cannot write {path}: [Errno 28]")):
            write_output(path, no_space([b"half"]))
        assert path.read_bytes() == b"good"
        assert os.listdir(tmp_path) == ["f.bin"]

    def test_any_other_fault_also_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"good")
        with pytest.raises(TypeError):
            write_output(path, [b"half", "text is not bytes"])
        assert path.read_bytes() == b"good"
        assert os.listdir(tmp_path) == ["f.bin"]

    def test_a_directory_that_cannot_be_made_is_a_data_error(self, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        with pytest.raises(DataError, match="cannot write"):
            write_output(tmp_path / "file" / "out" / "f.bin", [b"x"])


class Calls(ast.NodeVisitor):
    """(called name, dotted enclosing scope) of every call in a module."""

    def __init__(self, module):
        self.scope, self.found = [module], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        self.found.append((name, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_errors_opens_files_and_makes_directories():
    """Every file is read by `read_input` and written by `write_output`, the
    only callers of `open` in the package; only `write_output` makes
    directories."""
    allowed = {"open": {"errors.read_input", "errors.write_output"},
               "makedirs": {"errors.write_output"}, "mkdir": set()}
    sites = {name: set() for name in allowed}
    for path in sorted((ROOT / "src" / "gipad").glob("*.py")):
        calls = Calls(path.stem)
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
        for name, scope in calls.found:
            if name in sites:
                sites[name].add(scope)
    assert sites == allowed


def test_every_traced_span_names_a_gipad_function():
    """The benchmark's tracer wraps gipad functions by name (among them
    `net.save_checkpoint`, `data.generate_synth` and `data.read_image`)."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    spans = [[arg.value for arg in node.args[:2]] for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SpanSpec"]
    assert ["net", "save_checkpoint"] in spans
    for module, qualname in spans:
        obj = importlib.import_module(f"gipad.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{qualname}"
