import ast
import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import stgraphs
from stgraphs import verify
from stgraphs.cli import main
from stgraphs.graphcore import canonical_label, cycle_graph, from_graph6, petersen_graph, to_graph6


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse or input errors
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr().out
    return code, out


def test_check_outputs_predicates(capsys):
    code, out = run_cli(capsys, "check", "C~", "--s", "3", "--t", "2", "--k", "2")
    assert code == 0
    assert "order: 4" in out
    assert "size: 6" in out
    assert "hamiltonian_connected: True" in out
    assert "is_[3,2]_graph: True" in out
    assert "exception_witness(k=2): none" in out


def test_check_reports_witness(capsys):
    c4 = to_graph6(cycle_graph(4))
    code, out = run_cli(capsys, "check", c4, "--k", "2")
    assert code == 0
    assert "exception_witness(k=2): independent=" in out


def test_check_rejects_malformed(capsys):
    code, _ = run_cli(capsys, "check", "C")
    assert code != 0


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--k", "0"], "k must be at least 1"),
        (["--k", "-1"], "k must be at least 1"),
        (["--s", "0"], "s must be at least 1"),
        (["--s", "3", "--t", "-1"], "t must be nonnegative"),
        (["--t", "2"], "--t needs --s"),
    ],
)
def test_check_rejects_bad_parameters_before_reporting(capsys, extra, message):
    with pytest.raises(SystemExit) as exc:
        main(["check", "C~", *extra])
    assert exc.value.code == f"error: {message}"
    assert capsys.readouterr().out == ""


def test_verify_main_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "main", "--k", "2", "--nmax", "5")
    assert code == 0
    assert "REPORT theorem=main k=2 nmax=5" in out
    assert "verified=true" in out
    assert out.count("EXCEPTION") == 2


def test_verify_main_exit_one_on_counterexamples(capsys, monkeypatch):
    monkeypatch.setattr(verify, "is_hamiltonian_connected", lambda g: False)
    code, out = run_cli(capsys, "verify", "main", "--k", "2", "--nmax", "6")
    assert code == 1
    assert "counterexamples=9 verified=false" in out
    assert out.count("\nCOUNTEREXAMPLE ") == 9


def test_verify_requires_k(capsys):
    code, _ = run_cli(capsys, "verify", "main", "--nmax", "5")
    assert code != 0


def test_verify_nmax_defaults_to_eight(capsys):
    code, out = run_cli(capsys, "verify", "ce", "--k", "4")
    assert code == 0
    assert "nmax=8" in out


def test_verify_bound(capsys):
    code, out = run_cli(capsys, "verify", "bound", "--nmax", "5")
    assert code == 0
    assert "theorem=edge-bound" in out


@pytest.mark.parametrize("nmax", ["0", "10"])
def test_verify_bound_rejects_nmax_out_of_range(nmax):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bound", "--nmax", nmax])
    assert exc.value.code == "error: nmax must be within 1..9"


def test_verify_bound_rejects_k(capsys):
    # bound takes no k; a given --k is an error, not silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bound", "--k", "3"])
    assert exc.value.code == "error: verify bound takes no --k"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("data", [b"C~\nC\xc3\xa9\n", b"C~\nC\xe9\n"], ids=["utf8", "latin1"])
def test_verify_input_file_names_line_of_non_ascii(capsys, tmp_path, data):
    # a non-ASCII character, or a byte that is not UTF-8, is reported with
    # its line, as on stdin
    fp = tmp_path / "graphs.g6"
    fp.write_bytes(data)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main", "--k", "2", "--input", str(fp)])
    assert str(exc.value.code).startswith("error: line 2: character ")
    assert str(exc.value.code).endswith(" out of graph6 range")
    assert capsys.readouterr().out == ""


def test_verify_with_input_file(capsys, tmp_path):
    fp = tmp_path / "graphs.g6"
    fp.write_text(">>graph6<<" + to_graph6(petersen_graph()) + "\n")
    code, out = run_cli(
        capsys, "verify", "wangmou", "--k", "3", "--nmax", "10", "--input", str(fp)
    )
    assert code == 0
    assert "petersen" in out
    assert "scanned=1" in out
    # the header names the true source of the graphs, not the ignored --nmax
    assert "REPORT theorem=wang-mou k=3 source=input\n" in out
    assert "nmax" not in out


def test_verify_jobs_flag_is_deterministic(capsys):
    _, seq = run_cli(capsys, "verify", "main", "--k", "2", "--nmax", "5")
    _, par = run_cli(capsys, "verify", "main", "--k", "2", "--nmax", "5", "--jobs", "2")
    assert seq == par


def test_verify_input_jobs_flag_is_deterministic(capsys, tmp_path):
    # pooled --input scans send decoded Graph items to the workers
    _, out = run_cli(capsys, "gen", "--n", "5")
    fp = tmp_path / "n5.g6"
    fp.write_text(out)
    _, seq = run_cli(capsys, "verify", "wangmou", "--k", "2", "--input", str(fp))
    _, par = run_cli(
        capsys, "verify", "wangmou", "--k", "2", "--input", str(fp), "--jobs", "2"
    )
    assert seq == par
    assert "scanned=21" in seq and "EXCEPTION" in seq


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main", "--k", "2", "--nmax", "0"],
        ["verify", "main", "--k", "2", "--nmax", "11"],
        ["verify", "main", "--k", "2", "--nmax", "5", "--jobs", "0"],
    ],
)
def test_verify_rejects_bad_ranges(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value.code).startswith("error:")


def test_verify_rejects_empty_input(tmp_path):
    fp = tmp_path / "empty.g6"
    fp.write_text("\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main", "--k", "2", "--input", str(fp)])
    assert str(exc.value.code).startswith("error:")


@pytest.mark.parametrize("name", ["missing.g6", "."], ids=["missing", "directory"])
def test_verify_rejects_unreadable_input(capsys, tmp_path, name):
    # a path that cannot be opened as a file is an error, not a traceback
    fp = tmp_path / name
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main", "--k", "2", "--input", str(fp)])
    assert str(exc.value.code).startswith("error: [Errno ")
    assert str(fp) in str(exc.value.code)
    assert capsys.readouterr().out == ""


def test_find_path_success(capsys):
    code, out = run_cli(capsys, "find-path", "C~", "--u", "0", "--v", "3", "--trace")
    assert code == 0
    assert "hamilton-path:" in out


def test_find_path_trace_records_moves(capsys):
    # crossing instance: the engine needs one move, X
    code, out = run_cli(capsys, "find-path", "E@v_", "--u", "0", "--v", "2", "--trace")
    assert code == 0
    assert "move: X len 5->6" in out
    assert "hamilton-path:" in out


def test_verify_reads_stdin_stream(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(">>graph6<<C~\nC]\n"))
    code, out = run_cli(capsys, "verify", "main", "--k", "2", "--nmax", "8", "--input", "-")
    assert code == 0
    assert "scanned=2" in out
    assert out.count("EXCEPTION") == 1


def test_verify_skips_header_only_line(capsys, monkeypatch):
    import io

    # a header on its own line is skipped, not decoded as an empty graph6
    monkeypatch.setattr(sys, "stdin", io.StringIO(">>graph6<<\nC~\n"))
    code, out = run_cli(capsys, "verify", "main", "--k", "2", "--input", "-")
    assert code == 0
    assert "scanned=1 hypothesis_hits=1" in out


def test_check_rejects_header_only_graph(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", ">>graph6<<"])
    assert exc.value.code == "error: empty graph6 string"


def test_find_path_failure_certificate(capsys):
    c4 = to_graph6(cycle_graph(4))
    g = from_graph6(c4)
    u, v = next(
        (u, v) for u in range(4) for v in range(u + 1, 4) if not g.has_edge(u, v)
    )
    code, out = run_cli(capsys, "find-path", c4, "--u", str(u), "--v", str(v), "--k", "2")
    assert code == 1
    assert "stalled" in out
    assert "join-witness" in out
    assert "no hamilton path exists" in out


def test_find_path_rejects_disconnected_pair(capsys):
    # two isolated vertices: no (u,v)-path, so neither the engine nor the
    # exact search runs
    with pytest.raises(SystemExit) as exc:
        main(["find-path", "A?", "--u", "0", "--v", "1"])
    assert exc.value.code == "error: no (0,1)-path exists"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("k", ["0", "-1"])
def test_find_path_rejects_k_below_one(k):
    with pytest.raises(SystemExit) as exc:
        main(["find-path", "Cl", "--u", "0", "--v", "2", "--k", k])
    assert exc.value.code == "error: k must be at least 1"


# full stdout of find-path, pinned: a speed-up must leave it byte-identical
FIND_PATH_TRANSCRIPTS = [
    (
        ("find-path", "E@v_", "--u", "0", "--v", "2", "--trace"),
        0,
        "move: X len 5->6\n"
        "hamilton-path: 0 5 1 4 3 2\n",
    ),
    (
        ("find-path", "Cl", "--u", "0", "--v", "2", "--k", "2"),
        1,
        "stalled: longest path found 0 1 2\n"
        "certificate: join-witness independent=[0, 2] rest=[1, 3]\n"
        "fallback: no hamilton path exists\n",
    ),
    (
        # a 3-connected [4,2]-graph whose seed path is already a
        # Hamilton path: the walk from 0 gets stuck, the walk from 5 does not
        ("find-path", "ELv_", "--u", "0", "--v", "5", "--k", "3", "--trace"),
        0,
        "hamilton-path: 0 4 3 2 1 5\n",
    ),
    (
        # the graph is a join exception, but this pair has a Hamilton path,
        # which the engine finds
        ("find-path", "G?~vnk", "--u", "0", "--v", "1", "--k", "4"),
        0,
        "hamilton-path: 0 4 2 5 3 6 7 1\n",
    ),
    (
        # C6 is no [3,2]-graph: the exact search names a sparse 3-set
        ("find-path", "EhEG", "--u", "0", "--v", "3", "--k", "2"),
        1,
        "stalled: longest path found 0 1 2 3\n"
        "certificate: sparse-set [0, 1, 3]\n"
        "fallback: no hamilton path exists\n",
    ),
    (
        # without k there is no hypothesis for a sparse set to refute
        ("find-path", "EhEG", "--u", "0", "--v", "3"),
        1,
        "stalled: longest path found 0 1 2 3\n"
        "certificate: none\n"
        "fallback: no hamilton path exists\n",
    ),
    (
        # a pair that stalls without move E3.  From the lowest-degree seed
        # E3 fires on no pair of the generator's k-connected [k+1,2]-graphs
        # with n <= 9 (k = 2, 3, 4), so this graph is outside the
        # hypothesis and the run has no --k
        ("find-path", "G@PKlO", "--u", "1", "--v", "2", "--trace"),
        0,
        "move: E3 len 7->8\n"
        "hamilton-path: 1 5 4 7 0 6 3 2\n",
    ),
    (
        # a 3-connected [4,2]-graph; the fan insertion puts a two-vertex
        # H-path into the path
        ("find-path", "FFYmW", "--u", "3", "--v", "4", "--k", "3", "--trace"),
        0,
        "move: F len 5->7\n"
        "hamilton-path: 3 1 6 0 5 2 4\n",
    ),
    (
        # the moves stall short of a Hamilton path that the exact search finds
        ("find-path", "FGM]g", "--u", "0", "--v", "2", "--trace"),
        0,
        "move: F len 5->6\n"
        "stalled: longest path found 0 6 5 3 4 2\n"
        "certificate: none\n"
        "fallback hamilton-path: 0 5 4 3 6 1 2\n",
    ),
    (
        # the same stall with k: the graph is no [3,2]-graph
        ("find-path", "FGM]g", "--u", "0", "--v", "2", "--k", "2", "--trace"),
        0,
        "move: F len 5->6\n"
        "stalled: longest path found 0 6 5 3 4 2\n"
        "certificate: sparse-set [0, 1, 2]\n"
        "fallback hamilton-path: 0 5 4 3 6 1 2\n",
    ),
]


@pytest.mark.parametrize("argv, want_code, want_out", FIND_PATH_TRANSCRIPTS)
def test_find_path_transcripts(capsys, argv, want_code, want_out):
    code, out = run_cli(capsys, *argv)
    assert code == want_code
    assert out == want_out


def test_min_size_exit_codes(capsys):
    code, out = run_cli(capsys, "min-size", "--n", "5", "--s", "3", "--t", "1")
    assert code == 0
    assert "minimum=5" in out
    code, out = run_cli(capsys, "min-size", "--n", "4", "--s", "2", "--t", "2")
    assert code == 1
    assert "minimum=none" in out


def test_min_size_without_s_sets_reports_no_lower_bound(capsys):
    code, out = run_cli(capsys, "min-size", "--n", "4", "--s", "5", "--t", "10")
    assert code == 0
    assert "RESULT n=4 s=5 t=10 lower_bound=0 minimum=3 " in out


def test_gen_streams_graph6(capsys):
    code, out = run_cli(capsys, "gen", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    labels = {canonical_label(from_graph6(line)) for line in lines}
    assert len(labels) == 6


def test_gen_feeds_verify_input(capsys, tmp_path):
    _, out = run_cli(capsys, "gen", "--n", "4")
    fp = tmp_path / "n4.g6"
    fp.write_text(out)
    code, out = run_cli(
        capsys, "verify", "main", "--k", "2", "--nmax", "4", "--input", str(fp)
    )
    assert code == 0
    assert "scanned=6" in out


def test_gen_prints_the_cached_level(capsys):
    _, out = run_cli(capsys, "gen", "--n", "7")
    assert out == "".join(g6 + "\n" for g6 in verify._connected_level(7))


def test_gen_stores_no_level(capsys, monkeypatch):
    # a fresh cache, as test_growth_search_counts_pinned installs it: gen
    # walks the augmentation tree without filling it
    fresh = lru_cache(maxsize=None)(verify._connected_level.__wrapped__)
    monkeypatch.setattr(verify, "_connected_level", fresh)
    code, out = run_cli(capsys, "gen", "--n", "6")
    assert code == 0 and out.count("\n") == 112
    assert fresh.cache_info().currsize == 0


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_gen_order_nine_memory_is_bounded():
    """Streaming gen --n 9 (261,080 lines) into a null sink raises the
    process's peak resident set (VmHWM) by less than 5 MB over the peak
    after the import; holding every level up to 9 costs about 21 MB."""
    src = str(Path(stgraphs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import os, sys\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "import stgraphs.cli\n"
        "before = hwm()\n"
        "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        "assert stgraphs.cli.main(['gen', '--n', '9']) == 0\n"
        "sys.stdout = out\n"
        "print(hwm() - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 1024, f"VmHWM grew by {proc.stdout.strip()} kB"


@pytest.mark.slow
def test_gen_order_nine_pinned(capsys):
    """The level-9 text: one graph6 per line, each line ending in a newline."""
    code, out = run_cli(capsys, "gen", "--n", "9")
    assert code == 0
    assert out.count("\n") == 261080 and out.endswith("\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f3727f3d98e34033c468a266bb1281d16d2e7e8e260e233484ea748b072901ba"
    )


@pytest.mark.parametrize("argv", [["gen", "--n", "0"], ["gen", "--n", "11"]])
def test_gen_range_errors(capsys, argv):
    code, _ = run_cli(capsys, *argv)
    assert code != 0


def test_console_entry_point_subprocess():
    # the child imports the package under test, installed or not
    src = str(Path(stgraphs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stgraphs.cli", "check", "C~"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "order: 4" in proc.stdout


def test_cli_import_does_not_load_multiprocessing():
    # a scan imports multiprocessing only when it makes a worker pool
    src = str(Path(stgraphs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, stgraphs.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_does_not_load_pathengine():
    # only find-path runs the rule engine, so only it imports pathengine
    src = str(Path(stgraphs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, stgraphs.cli; print('stgraphs.pathengine' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_imports_only_the_standard_library():
    # the package stays stdlib-only: every absolute import, function-local
    # ones included, names a standard-library module
    pkg = Path(stgraphs.__file__).resolve().parent
    outside = []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []


def test_package_has_no_global_statements():
    # module state is rebound by no function: a cache is an lru_cache or a
    # dict that its owner fills, never a name a ``global`` statement rebinds
    pkg = Path(stgraphs.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno} {', '.join(node.names)}"
        for path in sorted(pkg.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_package_has_no_module_level_empty_containers():
    # no module starts a container empty and fills it at run time: a cache
    # is an lru_cache on the function that computes the value
    pkg = Path(stgraphs.__file__).resolve().parent

    def empty(value):
        if isinstance(value, ast.Dict):
            return not value.keys
        if isinstance(value, ast.List):
            return not value.elts
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "dict", "list")
            and not value.args
            and not value.keywords
        )

    found = []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if empty(node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found += [f"{path.stem}.{ast.unparse(t)}" for t in targets]
    assert found == []


# public functions that callers outside the package use and nothing in it calls
DOCUMENTED_ENTRY_POINTS = {"brute_force_connected", "revalidate_report"}


def test_package_has_no_unreferenced_top_level_names():
    # every top-level def, class or assignment of the package is referenced
    # in it by a load, an attribute, an import alias or a string constant;
    # dunder names and the documented entry points are exempt.  An import
    # alias counts only if its own module loads the name it binds, so an
    # unused import cannot keep a dead helper alive; __future__ imports and
    # the re-exports listed in __all__ of __init__ are exempt
    pkg = Path(stgraphs.__file__).resolve().parent
    defined, referenced, unloaded = [], set(), []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exempt = set(stgraphs.__all__) if path.name == "__init__.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in loaded | exempt:
                        unloaded.append(f"{path.name}:{node.lineno} {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(f"{path.name}:{node.lineno}", name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    unreferenced = [
        f"{where} {name}"
        for where, name in defined
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))
        and name not in DOCUMENTED_ENTRY_POINTS
    ]
    assert unreferenced == []
    assert unloaded == []


def test_package_applies_the_join_rule_only_in_theorem_exception():
    # the join exceptions are table data: only Theorem.exception names
    # join_witness, so the engine's stall certificate and ``check`` read
    # the rule off verify.THEOREMS instead of restating it
    pkg = Path(stgraphs.__file__).resolve().parent
    users = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Name) and child.id == "join_witness" or (
                isinstance(child, ast.Attribute) and child.attr == "join_witness"
            ):
                users.append(scope)
            visit(child, scope)

    for path in sorted(pkg.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert users == ["verify.Theorem.exception"]


# the ten nmax-8 theorem scans; their report lines are pinned by one digest,
# so a refactor of the judges must leave every REPORT line byte-identical
GOLDEN_SCANS = (
    *(("main", "--k", k) for k in "234"),
    *(("ce", "--k", k) for k in "234"),
    *(("wangmou", "--k", k) for k in "123"),
    ("bound",),
)
GOLDEN_SCANS_SHA256 = "0db5eeec5341c0b90d932dbe8595042e5863b1ad2fa6692c1a61916658744eab"


def test_verify_scans_golden_digest(capsys):
    h = hashlib.sha256()
    for scan in GOLDEN_SCANS:
        code, out = run_cli(capsys, "verify", *scan, "--nmax", "8")
        assert code == 0, scan
        for line in out.splitlines():
            if line.startswith(("REPORT", "scanned=", "EXCEPTION", "COUNTEREXAMPLE")):
                h.update(f"{line}\n".encode("ascii"))
    assert h.hexdigest() == GOLDEN_SCANS_SHA256
