"""Meta-tests on API quality: docstrings, exports, determinism."""

import importlib
import inspect
import pkgutil

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.diagnostics",
    "repro.distributed",
    "repro.dtypes",
    "repro.encodings",
    "repro.graph",
    "repro.kernels",
    "repro.layers",
    "repro.memory",
    "repro.models",
    "repro.orchestrate",
    "repro.perf",
    "repro.rewrite",
    "repro.serve",
    "repro.tensor",
    "repro.train",
    "repro.verify",
]


def iter_public_objects():
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            yield module_name, name, getattr(module, name)


class TestDocumentation:
    def test_every_module_has_docstring(self):
        for module_name in PUBLIC_MODULES:
            module = importlib.import_module(module_name)
            assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_every_submodule_has_docstring(self):
        for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro."):
            if name.endswith("__main__"):
                continue  # importing it would execute the CLI
            module = importlib.import_module(name)
            assert module.__doc__, f"{name} lacks a module docstring"

    def test_every_public_object_documented(self):
        undocumented = []
        for module_name, name, obj in iter_public_objects():
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_classes_document_methods(self):
        undocumented = []
        for module_name, name, obj in iter_public_objects():
            if not inspect.isclass(obj):
                continue
            for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited elsewhere
                if not inspect.getdoc(meth):
                    undocumented.append(f"{module_name}.{name}.{meth_name}")
        assert not undocumented, f"missing method docstrings: {undocumented}"


class TestExports:
    def test_all_lists_are_sorted_sets(self):
        for module_name in PUBLIC_MODULES:
            module = importlib.import_module(module_name)
            exported = getattr(module, "__all__", [])
            assert len(exported) == len(set(exported)), module_name
            for name in exported:
                assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))


class TestDeterminism:
    def test_static_analysis_is_deterministic(self):
        from repro.core import Gist, GistConfig
        from repro.models import build_model

        results = set()
        for _ in range(3):
            graph = build_model("alexnet", batch_size=16)
            report = Gist(GistConfig.full("fp8")).measure_mfr(graph)
            results.add((report.baseline_bytes, report.gist_bytes))
        assert len(results) == 1

    def test_allocator_order_independent_of_dict_order(self):
        # Same tensors in different list orders must allocate to the same
        # total under the greedy-size policy (it sorts internally).
        from repro.graph.liveness import LiveTensor, ROLE_FEATURE_MAP
        from repro.memory import StaticAllocator
        from repro.tensor import TensorSpec

        tensors = [
            LiveTensor(TensorSpec(f"t{i}", (100 + i,)), i % 7, i % 7 + 2,
                       0, ROLE_FEATURE_MAP)
            for i in range(40)
        ]
        a = StaticAllocator().allocate(tensors).total_bytes
        b = StaticAllocator().allocate(list(reversed(tensors))).total_bytes
        assert a == b
