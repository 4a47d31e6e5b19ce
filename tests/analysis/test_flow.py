"""Unit tests for the flow layer: module index, call graph, CFG dataflow."""

import ast
from pathlib import Path

from repro.analysis.engine import ModuleContext, module_name_for
from repro.analysis.flow import build_program
from repro.analysis.flow.cfg import build_cfg, may_reach_exit_open


def program_of(sources: dict[str, str]):
    ctxs = [
        ModuleContext(path=p, module=module_name_for(Path(p)), source=s, tree=ast.parse(s))
        for p, s in sources.items()
    ]
    return build_program(ctxs)


class TestModuleIndex:
    def test_functions_and_methods_indexed(self):
        program = program_of(
            {"repro/a.py": "def f():\n    pass\n\nclass C:\n    def m(self):\n        pass\n"}
        )
        assert "repro.a.f" in program.index.functions
        assert "repro.a.C" in program.index.classes
        assert program.index.classes["repro.a.C"].methods["m"] == "repro.a.C.m"

    def test_reexport_resolution(self):
        program = program_of(
            {
                "repro/pkg/__init__.py": "from repro.pkg.impl import work\n",
                "repro/pkg/impl.py": "def work():\n    pass\n",
            }
        )
        assert program.index.resolve_dotted("repro.pkg.work") == "repro.pkg.impl.work"

    def test_attr_class_from_constructor_assignment(self):
        program = program_of(
            {
                "repro/svc.py": (
                    "class Engine:\n"
                    "    def run(self):\n"
                    "        pass\n"
                    "\n"
                    "class Host:\n"
                    "    def __init__(self):\n"
                    "        self.engine = Engine()\n"
                )
            }
        )
        assert program.index.attr_class("repro.svc.Host", "engine") == "repro.svc.Engine"

    def test_attr_class_from_annotated_param(self):
        program = program_of(
            {
                "repro/svc.py": (
                    "class Engine:\n"
                    "    pass\n"
                    "\n"
                    "class Host:\n"
                    "    def __init__(self, engine: Engine):\n"
                    "        self.engine = engine\n"
                )
            }
        )
        assert program.index.attr_class("repro.svc.Host", "engine") == "repro.svc.Engine"

    def test_annotation_union_and_string_forms(self):
        src = (
            "class Engine:\n"
            "    pass\n"
            "\n"
            "def a(e: 'Engine'):\n"
            "    pass\n"
            "\n"
            "def b(e: Engine | None):\n"
            "    pass\n"
        )
        program = program_of({"repro/svc.py": src})
        ctx = program.index.modules["repro.svc"]
        for fname in ("a", "b"):
            node = program.index.functions[f"repro.svc.{fname}"].node
            assert (
                program.index.annotation_class(ctx, node.args.args[0].annotation)
                == "repro.svc.Engine"
            )

    def test_container_annotations_stay_opaque(self):
        src = "class Engine:\n    pass\n\ndef f(es: list[Engine]):\n    pass\n"
        program = program_of({"repro/svc.py": src})
        ctx = program.index.modules["repro.svc"]
        node = program.index.functions["repro.svc.f"].node
        assert program.index.annotation_class(ctx, node.args.args[0].annotation) is None

    def test_method_lookup_walks_bases(self):
        src = (
            "class Base:\n"
            "    def shared(self):\n"
            "        pass\n"
            "\n"
            "class Child(Base):\n"
            "    pass\n"
        )
        program = program_of({"repro/svc.py": src})
        assert program.index.lookup_method("repro.svc.Child", "shared") == "repro.svc.Base.shared"


class TestCallGraph:
    def test_local_and_imported_call_edges(self):
        program = program_of(
            {
                "repro/a.py": "def helper():\n    pass\n",
                "repro/b.py": (
                    "from repro.a import helper\n"
                    "\n"
                    "def top():\n"
                    "    helper()\n"
                ),
            }
        )
        assert "repro.a.helper" in program.graph.edges["repro.b.top"]

    def test_method_edge_through_typed_attribute(self):
        src = (
            "class Engine:\n"
            "    def run(self):\n"
            "        pass\n"
            "\n"
            "class Host:\n"
            "    def __init__(self):\n"
            "        self.engine = Engine()\n"
            "\n"
            "    def go(self):\n"
            "        self.engine.run()\n"
        )
        program = program_of({"repro/svc.py": src})
        assert "repro.svc.Engine.run" in program.graph.edges["repro.svc.Host.go"]

    def test_constructor_edge_reaches_init(self):
        src = (
            "class Engine:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "\n"
            "def make():\n"
            "    return Engine()\n"
        )
        program = program_of({"repro/svc.py": src})
        assert "repro.svc.Engine.__init__" in program.graph.edges["repro.svc.make"]

    def test_factory_return_annotation_types_the_result(self):
        src = (
            "class Engine:\n"
            "    def run(self):\n"
            "        pass\n"
            "\n"
            "def make() -> Engine:\n"
            "    return Engine()\n"
            "\n"
            "def top():\n"
            "    e = make()\n"
            "    e.run()\n"
        )
        program = program_of({"repro/svc.py": src})
        assert "repro.svc.Engine.run" in program.graph.edges["repro.svc.top"]

    def test_reference_edge_for_callback_argument(self):
        src = (
            "def worker(batch):\n"
            "    pass\n"
            "\n"
            "def submit_all(pool, batches):\n"
            "    for b in batches:\n"
            "        pool.submit(worker, b)\n"
        )
        program = program_of({"repro/svc.py": src})
        assert "repro.svc.worker" in program.graph.edges["repro.svc.submit_all"]

    def test_reference_edge_for_bound_method_value(self):
        """A hot loop that binds ``hook = runtime.method`` once and calls
        the local keeps the edge to the method."""
        src = (
            "class Runtime:\n"
            "    def on_failure(self, idx):\n"
            "        pass\n"
            "\n"
            "def make() -> Runtime:\n"
            "    return Runtime()\n"
            "\n"
            "def loop(n):\n"
            "    runtime = make()\n"
            "    on_failure = runtime.on_failure\n"
            "    for idx in range(n):\n"
            "        on_failure(idx)\n"
        )
        program = program_of({"repro/svc.py": src})
        assert "repro.svc.Runtime.on_failure" in program.graph.edges["repro.svc.loop"]

    def test_reachability_and_witness_chain(self):
        program = program_of(
            {
                "repro/a.py": (
                    "def leaf():\n    pass\n\n"
                    "def mid():\n    leaf()\n\n"
                    "def entry():\n    mid()\n\n"
                    "def island():\n    pass\n"
                )
            }
        )
        parents = program.graph.reachable_from(["repro.a.entry"])
        assert "repro.a.leaf" in parents
        assert "repro.a.island" not in parents
        chain = program.graph.witness_chain(parents, "repro.a.leaf")
        assert chain == ["repro.a.entry", "repro.a.mid", "repro.a.leaf"]


def leaked_in(src: str) -> int:
    fn = ast.parse(src).body[0]
    assert isinstance(fn, ast.FunctionDef)
    cfg = build_cfg(fn)

    def is_open(c: ast.Call) -> bool:
        return isinstance(c.func, ast.Attribute) and c.func.attr == "open_span"

    def is_close(c: ast.Call) -> bool:
        return isinstance(c.func, ast.Attribute) and c.func.attr == "close_span"

    return len(may_reach_exit_open(cfg, is_open, is_close))


class TestCFGDataflow:
    def test_straight_line_pairing_is_clean(self):
        assert leaked_in("def f(m):\n    m.open_span()\n    m.close_span()\n") == 0

    def test_early_return_leaks(self):
        src = (
            "def f(m, ok):\n"
            "    m.open_span()\n"
            "    if not ok:\n"
            "        return None\n"
            "    m.close_span()\n"
        )
        assert leaked_in(src) == 1

    def test_raise_between_open_and_close_leaks(self):
        src = (
            "def f(m, ok):\n"
            "    m.open_span()\n"
            "    if not ok:\n"
            "        raise ValueError()\n"
            "    m.close_span()\n"
        )
        assert leaked_in(src) == 1

    def test_try_finally_covers_exception_and_return(self):
        src = (
            "def f(m, ok):\n"
            "    m.open_span()\n"
            "    try:\n"
            "        if not ok:\n"
            "            raise ValueError()\n"
            "        return 1\n"
            "    finally:\n"
            "        m.close_span()\n"
        )
        assert leaked_in(src) == 0

    def test_statement_in_try_may_raise_to_exit(self):
        src = (
            "def f(m, rid):\n"
            "    m.open_span()\n"
            "    try:\n"
            "        v = int(rid)\n"
            "    except ValueError:\n"
            "        pass\n"
            "    m.close_span()\n"
            "    return v\n"
        )
        # int(rid) can raise something ValueError does not catch -> leak path
        assert leaked_in(src) == 1

    def test_catch_all_handler_keeps_it_clean(self):
        src = (
            "def f(m, rid):\n"
            "    m.open_span()\n"
            "    try:\n"
            "        v = int(rid)\n"
            "    except Exception:\n"
            "        v = 0\n"
            "    m.close_span()\n"
            "    return v\n"
        )
        assert leaked_in(src) == 0

    def test_while_true_break_after_close_is_clean(self):
        src = (
            "def f(m, items):\n"
            "    m.open_span()\n"
            "    while True:\n"
            "        if items:\n"
            "            m.close_span()\n"
            "            break\n"
        )
        assert leaked_in(src) == 0

    def test_close_in_nested_def_does_not_count(self):
        src = (
            "def f(m):\n"
            "    m.open_span()\n"
            "    def later():\n"
            "        m.close_span()\n"
            "    return later\n"
        )
        assert leaked_in(src) == 1
