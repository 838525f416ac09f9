"""The engine runs its BLAS kernels on one OpenBLAS thread and gives the
caller's thread count back whenever control leaves it."""

import ast
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import dualcat
from dualcat import blas, circuits, fock
from dualcat.fock import CutoffError, apply_single_mode_matrix, basis_state, mode, plain_register


class FakeBlas:
    """Stand-in thread-count calls that log each call and then let other
    Python threads run, as a slow native call would."""

    def __init__(self, count: int = 2):
        self.count = count
        self.log: list = []

    def get(self) -> int:
        self.log.append(("get", self.count))
        count = self.count
        time.sleep(0)
        return count

    def set(self, n: int) -> None:
        self.log.append(("set", n))
        self.count = n
        time.sleep(0)


#: the calls of one scope that starts at the caller's count 2
ONE_SCOPE = [("get", 2), ("set", 1), ("set", 2)]


@pytest.fixture
def fake(monkeypatch):
    fake = FakeBlas()
    monkeypatch.setattr(blas, "openblas", lambda: blas.OpenBlas("fake", "fake", fake.get, fake.set))
    return fake


def test_one_polarization_access_is_one_scope(fake):
    state = circuits.generate_entangled_cat(1.2).output_state
    fake.log.clear()
    circuits.access_polarization(state)
    assert fake.log == ONE_SCOPE


def test_count_is_restored_after_an_error_in_a_kernel(fake):
    reg = plain_register([1], 4)
    top = basis_state(reg, {mode(1): 4})
    shift = fock.displacement_matrix(0.5, 5)
    fake.log.clear()
    with pytest.raises(CutoffError):
        apply_single_mode_matrix(top, mode(1), shift, tail_eps=1e-12)
    assert fake.log == ONE_SCOPE
    fock.inner_product(top, top)  # the depth is back at 0: a new scope starts
    assert fake.log == ONE_SCOPE * 2


def test_count_is_restored_after_concurrent_engine_calls(fake):
    state = circuits.generate_entangled_cat(1.0).output_state
    # reads the count after an engine call, inside a scope of its own
    probe = fock._one_blas_thread(lambda: (fock.inner_product(state, state), fake.count)[1])
    inside, errors = [], []

    def work():
        try:
            for _ in range(300):
                fock.inner_product(state, state)
                inside.append(probe())
        except Exception as err:  # reported by the main thread
            errors.append(err)

    fake.log.clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(inside) == 4 * 300 and set(inside) == {1}
    assert fake.count == 2
    # every scope saved the caller's count and gave it back before the next began
    assert fake.log == ONE_SCOPE * (len(fake.log) // 3)


SUBPROCESS_RUN = """
import dualcat
from dualcat import circuits, fock
assert fock.openblas.cache_info().currsize == 0  # nothing looked up at import
blas = fock.openblas()
assert blas is not None
before = blas.get_num_threads()
circuits.generate_entangled_cat(1.2)
after = blas.get_num_threads()
inside = fock._one_blas_thread(blas.get_num_threads)()
print(before, after, inside)
"""


@pytest.mark.skipif(fock.openblas() is None, reason="numpy is not linked to OpenBLAS")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS caps its threads at the processors it may use")
def test_real_openblas_count_is_the_callers_outside_and_one_inside():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", SUBPROCESS_RUN], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "2", "1"]


# ---------------------------------------------------------------------------
# every BLAS call site runs in the scope

#: integer key arithmetic (``@`` or ``np.dot`` on int64 arrays), not BLAS
KEY_ARITHMETIC = {"fock.embed", "fock.restrict", "fock.PureState.__init__",
                  "fock.ModeRegister.encode", "analysis.subsystem_fidelity"}
#: outermost scopes whose inner kernel calls must nest
OUTERMOST = {"analysis.chsh_optimize", "circuits.access_polarization"}


def _uses_blas(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            return True
        if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id == "np" and sub.attr in ("vdot", "dot", "matmul", "linalg")):
            return True
    return False


def _functions():
    """(qualified name, def node) of every module-level function and method."""
    for path in sorted(Path(dualcat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members, prefix = node.body, f"{path.stem}.{node.name}."
            else:
                members, prefix = [node], f"{path.stem}."
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield prefix + fn.name, fn


def _scoped(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "_one_blas_thread" for d in fn.decorator_list)


def test_every_blas_call_site_is_scoped():
    functions = dict(_functions())
    unscoped = sorted(name for name, fn in functions.items()
                      if _uses_blas(fn) and not _scoped(fn) and name not in KEY_ARITHMETIC)
    assert not unscoped
    assert all(_uses_blas(functions[name]) for name in KEY_ARITHMETIC)  # the list is not stale
    assert all(_scoped(functions[name]) for name in OUTERMOST)
