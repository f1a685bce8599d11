"""What a CLI process imports, and the package's exports, eager and lazy.

Each command runs in a fresh ``python -I -S`` interpreter with ``src`` put on
``sys.path`` by the code itself, so neither the environment nor a ``.pth``
file of an installed copy can change what is loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import evometrics
from evometrics import diversity, errors, halstead, inequality, trend
from evometrics import dataset as dataset_module

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
# stdlib modules no command needs: dataclasses pulls in inspect (and ast, dis, tokenize),
# statistics pulls in fractions and decimal
HEAVY = ("dataclasses", "inspect", "statistics", "fractions", "decimal")
LEXER = "evometrics.halstead"

# after importing evometrics.cli, run cli.main on each argv (sys.argv[2], as JSON) and print
# the exit codes and which of the watched modules (sys.argv[3]) are loaded, as JSON
RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from evometrics import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, sorted(set(json.loads(sys.argv[3])) & set(sys.modules))]))
"""


def fresh_run(argvs, watched=(*HEAVY, LEXER)):
    """The exit codes of ``argvs`` run in turn in one fresh ``-I -S`` interpreter, and
    the ``watched`` modules it has loaded at the end."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", RUN, str(SRC), json.dumps(argvs),
         json.dumps(watched)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SERIES = ["--manifest", str(FIXTURES / "synthetic_manifest.json"),
          "--data", str(FIXTURES / "synthetic_metrics.csv"),
          "--package", "tracking", "--metric", "effort"]


class TestImportBudget:
    # each command runs twice: on an empty cache (a miss), then on its entry (a hit)
    @pytest.mark.parametrize("argv", [
        None,  # the import alone
        ["--version"],
        ["trend", *SERIES, "--plot", "PLOT"],
        ["trend", *SERIES, "--statistic", "median", "--format", "csv"],
        ["inequality", *SERIES],
        ["diversity", "--data", str(FIXTURES / "synthetic_metrics.csv"), "--version", "r03",
         "--package", "tracking", "--category-metric", "effort"],
    ], ids=["import", "version", "trend-plot", "trend-median-csv", "inequality", "diversity"])
    def test_an_analysis_loads_neither_heavy_stdlib_modules_nor_the_lexer(self, argv,
                                                                          tmp_path):
        if argv is None:
            argvs = []
        else:
            argvs = [[str(tmp_path / "plot.svg") if a == "PLOT" else a for a in argv]] * 2
        codes, loaded = fresh_run(argvs)
        assert codes == [0] * len(argvs)
        assert loaded == []

    def test_extract_loads_the_lexer_and_no_heavy_stdlib_module(self, tmp_path):
        source = tmp_path / "a.c"
        source.write_text("int a = b + c;\n")
        argv = ["extract", str(source), "--version", "v1", "--package", "p",
                "--output", str(tmp_path / "rows.csv")]
        assert fresh_run([argv, ["trend", *SERIES]]) == [[0, 0], [LEXER]]

    def test_the_package_loads_the_lexer_on_first_access_to_a_halstead_name(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import evometrics; "
                f"before = {LEXER!r} in sys.modules; evometrics.tokenize; "
                f"print(before, {LEXER!r} in sys.modules)")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False True\n"


# the home of each export that is not a class or function, which carry their own
CONSTANT_HOMES = {"DEFAULT_ALPHA": trend, "DEFAULT_EPSILON": inequality, "DOWNWARD": trend,
                  "NO_TREND": trend, "UPWARD": trend}
MODULES = {m.__name__: m for m in (diversity, errors, halstead, inequality, trend,
                                   dataset_module)}


class TestExports:
    def test_every_export_is_the_object_of_its_home_module(self):
        assert len(set(evometrics.__all__)) == len(evometrics.__all__)
        for name in evometrics.__all__:
            value = getattr(evometrics, name)
            home = CONSTANT_HOMES.get(name) or MODULES[value.__module__]
            assert vars(home)[name] is value, name

    def test_the_halstead_exports_are_its_objects(self):
        lazy = [name for name in evometrics.__all__ if name not in vars(evometrics)]
        assert lazy == ["HalsteadMeasures", "Token", "TokenCounts", "extract_file",
                        "halstead_counts", "halstead_measures", "tokenize"]
        assert all(getattr(evometrics, name) is vars(halstead)[name] for name in lazy)

    def test_a_star_import_binds_every_export(self):
        namespace = {}
        exec("from evometrics import *", namespace)
        assert {name: namespace[name] for name in evometrics.__all__} == {
            name: getattr(evometrics, name) for name in evometrics.__all__}

    def test_dir_covers_every_export(self):
        listed = dir(evometrics)
        assert listed == sorted(listed)
        assert {*evometrics.__all__, "__version__"} <= set(listed)

    def test_an_unknown_name_is_an_attribute_error_that_names_it(self):
        with pytest.raises(AttributeError, match="'evometrics' has no attribute 'no_such_name'"):
            evometrics.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from evometrics import no_such_name", {})
