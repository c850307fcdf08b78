"""Run every module's docstring examples as tests.

The library's doc comments carry runnable examples; this keeps them
honest without duplicating them in the test files.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

OPTIONFLAGS = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE

# Modules folded into another keep their test ids: each id runs the
# examples the old module held, now on a function of the new module.
FOLDED = {
    "repro.batch.parity": ("repro.parity", "run_parity_harness"),
    "repro.async_sched.parity": ("repro.parity", "run_async_parity"),
    "repro.variants.parity": ("repro.parity", "run_variant_parity"),
}


def _all_modules():
    names = ["repro", *FOLDED]
    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        names.append(module_info.name)
    return sorted(names)


def _function_doctests(module_name, attr):
    module = importlib.import_module(module_name)
    finder = doctest.DocTestFinder()
    runner = doctest.DocTestRunner(optionflags=OPTIONFLAGS)
    for test in finder.find(
        getattr(module, attr),
        f"{module_name}.{attr}",
        module=module,
        globs=vars(module).copy(),
    ):
        runner.run(test)
    return runner.summarize(verbose=False)


@pytest.mark.parametrize("name", _all_modules())
def test_module_doctests(name):
    if name in FOLDED:
        result = _function_doctests(*FOLDED[name])
        assert result.attempted > 0, f"no examples left for {name}"
    else:
        module = importlib.import_module(name)
        result = doctest.testmod(module, optionflags=OPTIONFLAGS)
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {name}"
