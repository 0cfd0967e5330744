"""The compiled kernel against the numpy reference in `oracles`, and its loader.

The kernel runs the search's outer iterations, each a perturbation and a
descent, up to the next decision point, builds the search's gain caches,
and fills the random toy's magnitudes. It is the search's only path.

A C compiler is part of the test environment, so a kernel that does not
build or load fails these tests instead of skipping them.
"""

import ctypes
import io
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lsils import (
    Budget,
    GainCache,
    LambdaSchedule,
    SearchConfig,
    ToyKind,
    UbqpInstance,
    construct_toy,
    evaluate,
    ils,
    local_search,
    lsils,
    random_solution,
    seeded_rng,
    write_runlog_csv,
)
from lsils import _kernel, search
from lsils.qubo import INT32_MAX, INT64_MAX, gain_dtype
from lsils.search import PIVOT_RULES, _Run
from lsils.smoothing import blend_weights

import oracles
from test_qubo import make_instance
from test_search import gains_past_2_53

# Sizes up to 130 put the kernel's best-improvement scan across two whole
# 64-entry blocks and a tail, and its vector loops across their remainders.
MAX_N = 130
FORMS = ("instance",) + tuple(kind.value for kind in ToyKind)
# Blends of two forms with the integer weights of these lam and alpha,
# (1, 0) and (0, 1) among them.
LAMS = (0.0, 0.001, 0.3, 0.5, 1.0)
ALPHAS = (0.25, 1.0, 3.7)
# Every form of up to MAX_N bits above is within the int32 gain bound.
WIDTHS = _kernel.GAIN_DTYPES


def make_form(name: str, n: int, seed: int):
    if name == "instance":
        return make_instance(n, seed=seed)
    anchor = random_solution(n, seeded_rng(seed, 9))
    return construct_toy(ToyKind(name), anchor, seed=seed)


def read_at(run, slot: int, field: int) -> np.ndarray:
    """The array the kernel reads through `field` of the run's cache row `slot`."""
    (array,) = [array for array in run.read[slot] if array.ctypes.data == run.rows[slot, field]]
    return array


def load(run, slot: int, form, x) -> None:
    """Load the numpy reference's cache of `form` at x into the run's `slot`:
    bind the slot to the form and copy in the cache's gains, sigma and
    solution. The cache, now on the slot's arrays, is kept in
    `run.references` for the reference to flip."""
    cache = GainCache.build(form, x)
    run.read[slot] = _kernel.bind(run.rows[slot], form, run.n, run.gains.dtype)
    run.gains[slot], run.sigma[slot], run.x[slot] = cache.gains, cache.sigma, cache.solution
    cache.gains, cache.sigma, cache.solution = run.gains[slot], run.sigma[slot], run.x[slot]
    vars(run).setdefault("references", [None, None])[slot] = cache


def loaded(run, forms, x):
    """`run` with the reference caches of `forms` at x in its first slots."""
    for slot, form in enumerate(forms):
        load(run, slot, form, x)
    run.caches = len(forms)
    return run


def references(run) -> list:
    """The reference caches of the slots the run iterates on."""
    return run.references[:run.caches]


def reference_build(run, slot, form, x) -> int:
    """`_Run.build` by `GainCache.build`, the numpy reference."""
    load(run, slot, form, x)
    return evaluate(form, x)


def reference_perturb_from(run, rng, bits) -> None:
    """`_Run.perturb_from` for the numpy reference, which draws from `rng` itself."""
    run.bits, run.generator = bits, rng


def reference_iterate(run, weights=None, perturb=False, stop=INT64_MAX, halt=False) -> None:
    """`_Run.iterate` by the numpy reference, one iteration per call."""
    oracles.descent_call(run, references(run), weights, run.generator if perturb else None,
                         run.bits)


def run_the_reference(monkeypatch) -> None:
    """Runs build their caches, draw their swap targets and run their
    iterations in the numpy reference."""
    monkeypatch.setattr(search._Run, "iterate", reference_iterate)
    monkeypatch.setattr(search._Run, "build", reference_build)
    monkeypatch.setattr(search._Run, "perturb_from", reference_perturb_from)


def test_kernel_loads():
    assert _kernel.library() is not None


def test_failed_build_is_tried_once_per_process(tmp_path, monkeypatch):
    attempts = []

    def fail(compiler, target):
        attempts.append(target)
        raise subprocess.CalledProcessError(1, compiler, stderr=b"_kernel.c:1: error: broken")

    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_kernel, "_compile", fail)
    _kernel._load.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(OSError, match="failed to build:\n_kernel.c:1: error: broken"):
                _kernel.library()
    finally:
        _kernel._load.cache_clear()
    assert len(attempts) == 1


def test_source_compiles_without_warnings(tmp_path):
    subprocess.run([_kernel._compiler(), "-std=c99", "-Wall", "-Wextra", "-Werror",
                    *_kernel.FLAGS, "-o", str(tmp_path / "kernel.so"), str(_kernel.SOURCE)],
                   check=True, capture_output=True)


def test_a_compiler_without_int128_fails_with_a_message(tmp_path, monkeypatch):
    # The streams need unsigned __int128; a compiler without it stops at an
    # #error, which the loader's OSError carries.
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_kernel, "FLAGS", ("-U__SIZEOF_INT128__", *_kernel.FLAGS))
    _kernel._load.cache_clear()
    try:
        with pytest.raises(OSError, match="failed to build:\n(.|\n)*unsigned __int128"):
            _kernel.library()
    finally:
        _kernel._load.cache_clear()


def c_enums(source: str) -> dict[str, int]:
    """Every enumerator of the source's enum blocks with its value; an
    explicit value is an integer or a sum of enumerators and integers."""
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.DOTALL)
    values = {}
    for block in re.findall(r"\benum\s*\{(.*?)\}", source, flags=re.DOTALL):
        value = -1
        for item in filter(None, (part.strip() for part in block.split(","))):
            name, _, expr = (part.strip() for part in item.partition("="))
            terms = [term.strip() for term in expr.split("+")] if expr else []
            value = (sum(values[t] if t in values else int(t) for t in terms) if terms
                     else value + 1)
            values[name] = value
    return values


def test_layout_matches_the_source():
    # _kernel.py mirrors _kernel.c's form codes, stream words, state layout
    # and cache row, whose fields it names, in order, as the struct's members.
    source = _kernel.SOURCE.read_text()
    prefixes = ("ST_", "FORM_", "PCG_")
    ours = {name: value for name, value in vars(_kernel).items()
            if name.startswith(prefixes) and isinstance(value, int)}
    theirs = {name: value for name, value in c_enums(source).items()
              if name.startswith(prefixes)}
    assert ours == theirs
    struct = re.search(r"typedef struct \{(.*?)\} lsils_cache;", source, flags=re.DOTALL)
    members = re.findall(r"(\w+)\s*;", re.sub(r"/\*.*?\*/", "", struct.group(1),
                                                flags=re.DOTALL))
    fields = sorted((value, name) for name, value in vars(_kernel).items()
                    if name.startswith("ROW_"))
    assert [name.removeprefix("ROW_").lower() for _, name in fields] == members
    assert [value for value, _ in fields] == list(range(len(members)))
    assert len(members) == _kernel.CACHE_FIELDS


@pytest.fixture(scope="session")
def compiled_library(tmp_path_factory) -> Path:
    """One library compiled from the source, once per session."""
    library = tmp_path_factory.mktemp("kernel") / "kernel.so"
    _kernel._compile(_kernel._compiler(), library)
    return library


@pytest.fixture
def copied_compile(compiled_library, monkeypatch) -> None:
    """`_kernel._compile` copies the session's library: for the tests of how
    the loader handles its files, which need no compile of their own."""
    monkeypatch.setattr(_kernel, "_compile",
                        lambda compiler, target: shutil.copy(compiled_library, target))


def test_build_caches_one_file_by_hash(tmp_path, monkeypatch, copied_compile):
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    assert _kernel._build().lsils_iterate_i32
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [_kernel._library_name()]
    assert _kernel._build().lsils_iterate_i32


def test_build_prunes_stale_libraries(tmp_path, monkeypatch, copied_compile):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "_kernel-0123456789abcdef.so").write_bytes(b"an older kernel")
    (cache / "_kernel-fedcba9876543210.so").mkdir()  # cannot be unlinked
    (cache / "other.so").write_bytes(b"")
    monkeypatch.setattr(_kernel, "CACHE_DIR", cache)
    assert _kernel._build().lsils_iterate_i32
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [_kernel._library_name(), "_kernel-fedcba9876543210.so", "other.so"])


def test_unwritable_cache_builds_privately(tmp_path, monkeypatch, copied_compile):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(_kernel, "CACHE_DIR", blocker / "cache")
    assert _kernel._build().lsils_iterate_i32


def assert_caches_agree(run, ref):
    """The caches the run iterates on hold what the reference's do."""
    k = ref.caches
    assert run.caches == k
    for name in ("gains", "sigma", "x"):
        assert np.array_equal(getattr(run, name)[:k], getattr(ref, name)[:k]), name


def assert_descents_agree(forms, x, weights, pivot, dtype=np.int64):
    """One compiled and one reference descent from x give identical results;
    returns the compiled run."""
    ref, run = (loaded(_Run(x.size, pivot, dtype=dtype), forms, x) for _ in range(2))
    oracles.descend(ref, references(ref), weights, pivot)
    run.iterate(weights)
    assert (run.value, run.consumed) == (ref.value, ref.consumed)
    assert_caches_agree(run, ref)
    return run


def started_run(forms, x, pivot, budget, interval, lam, start, dtype=np.int64):
    """A run with reference caches at x, at value f(x), best f(x) - 1 and
    `start` evaluations."""
    run = loaded(_Run(x.size, pivot, Budget("evals", budget), interval, dtype), forms, x)
    run.value = evaluate(forms[0], x)
    run.best = run.value - 1
    run.best_x[:] = x
    run.current_lam = lam
    if start:
        run.charge(start)
    return run


def assert_runs_agree(run, ref):
    """The kernel's run and caches end as the reference's do."""
    assert_caches_agree(run, ref)
    assert (run.value, run.best) == (ref.value, ref.best)
    assert np.array_equal(run.best_x, ref.best_x)
    assert run.log.records == ref.log.records
    assert (run.consumed, run.next_mark) == (ref.consumed, ref.next_mark)


def assert_iterations_agree(run, ref, weights, bits, rng, stop, halt):
    """One compiled call, and the reference's iterations one at a time until
    it would stop, from the same started runs, end in the same state; the
    kernel's stream, seeded from the generator `rng`, ends where the
    reference's draws from `rng` leave it."""
    n = run.n
    run.perturb_from(rng, bits)
    run.iterate(weights, True, stop, halt)
    # The kernel starts no iteration at `stop`, nor, under `halt`, after
    # one that improved the best.
    improved = False
    while ref.consumed < stop and not (halt and improved):
        best = ref.best
        oracles.descent_call(ref, references(ref), weights, rng, bits)
        improved = ref.best > best
    assert_runs_agree(run, ref)
    assert np.array_equal(run.state[_kernel.ST_STREAM:], _kernel.stream(rng))
    assert np.array_equal(run.scratch[:n], np.arange(n))
    assert not run.lanes[:n].any()


def iteration_stop(n: int, bits: int, start: int = 0) -> int:
    """A stop count at most 64 iterations of `bits`-bit perturbations past
    `start`: each costs at least n (bits + 1), the perturbation and a scan."""
    return start + 64 * n * (bits + 1)


class TestDescentEquivalence:
    @given(st.integers(1, MAX_N), st.integers(0, 2**32),
           st.lists(st.sampled_from(FORMS), min_size=1, max_size=2),
           st.sampled_from(PIVOT_RULES), st.booleans(), st.sampled_from(LAMS),
           st.sampled_from(ALPHAS),
           st.one_of(st.none(), st.integers(1, 120), st.floats(0.5, 120)),
           st.integers(0, 400), st.integers(1, 20000), st.sampled_from(WIDTHS))
    @example(MAX_N, 3, ["random", "random"], "best", True, 0.3, 1.0, 40, 0, 20000, np.int32)
    @example(MAX_N, 4, ["random", "random"], "first", True, 0.5, 3.7, None, 7, 20000, np.int64)
    def test_kernel_matches_numpy_descent(self, n, seed, slots, pivot, blend, lam, alpha,
                                          interval, start, budget, dtype):
        forms = [make_form(name, n, seed + i) for i, name in enumerate(slots)]
        x = random_solution(n, seeded_rng(seed, 1))
        weights = blend_weights(lam, alpha, 0, 0) if blend and len(forms) == 2 else None
        ref, run = (started_run(forms, x, pivot, budget, interval, lam, start, dtype)
                    for _ in range(2))
        oracles.descend(ref, references(ref), weights, pivot)
        run.iterate(weights)
        assert_runs_agree(run, ref)

    @pytest.mark.parametrize("weights", [None, (1, 0), (1, 1)])
    def test_ties_go_to_the_lowest_index(self, weights):
        # From 00 both flips gain 1, and each one makes the other lose.
        inst = UbqpInstance.from_matrix(np.array([[1, -1], [-1, 1]]))
        for compiled in (False, True):
            run = loaded(_Run(2, "best"), (inst, inst), [0, 0])
            if compiled:
                run.iterate(weights)
            else:
                oracles.descend(run, references(run), weights, "best")
            assert run.value == 1
            assert run.x[0].tolist() == [1, 0]

    @pytest.mark.parametrize("weights", [None, (1, 0), (1, 1)])
    @pytest.mark.parametrize("tie", [(3, 70), (63, 64), (0, 129), (70, 100), (128, 129)])
    def test_ties_between_blocks_go_to_the_lowest_index(self, weights, tie):
        # From 0 both bits gain 1, the largest gain, and each one makes the
        # other lose; the other bits gain 0 or lose.
        n, (i, j) = MAX_N, tie
        q = np.diag(-seeded_rng(5).integers(0, 3, size=n))
        q[i, i] = q[j, j] = 1
        q[i, j] = q[j, i] = -1
        inst = UbqpInstance.from_matrix(q)
        run = assert_descents_agree((inst, inst), np.zeros(n, dtype=np.int8), weights, "best")
        assert run.x[0].nonzero()[0].tolist() == [i]

    # A best-improvement descent on one dense cache takes each pivot after
    # its first from the largest gain the last flip wrote, not from a scan.
    @pytest.mark.parametrize("dtype", WIDTHS)
    @pytest.mark.parametrize("tie", [(63, 64), (60, 100), (127, 128), (5, 129)])
    def test_ties_after_a_flip_go_to_the_lowest_index(self, tie, dtype):
        # From 0 bit p gains most; flipping it lifts the gains of bits i and
        # j, 1 and 3 before, to 5 both, on each side of a block boundary,
        # and the flip of i then makes j lose.
        n, p, (i, j) = MAX_N, 31, tie
        q = np.diag(-seeded_rng(7).integers(0, 3, size=n))
        q[p, p], q[i, i], q[j, j] = 10, 1, 3
        q[i, p] = q[p, i] = 2
        q[j, p] = q[p, j] = 1
        q[i, j] = q[j, i] = -3
        inst = UbqpInstance.from_matrix(q)
        run = assert_descents_agree((inst,), np.zeros(n, dtype=np.int8), None, "best", dtype)
        assert run.x[0].nonzero()[0].tolist() == sorted((p, i))

    @pytest.mark.parametrize("dtype", WIDTHS)
    @pytest.mark.parametrize("n", [65, 100, MAX_N])
    def test_a_largest_gain_in_the_tail_block_is_found(self, n, dtype):
        # From 0 bit 0 gains most; its flip leaves the largest gain, 5, at
        # bit n - 1, past the whole blocks, and a smaller one, 3, at bit 5.
        q = np.diag(-seeded_rng(8).integers(0, 3, size=n))
        q[0, 0], q[5, 5], q[n - 1, n - 1] = 10, 1, 1
        q[5, 0] = q[0, 5] = 1
        q[n - 1, 0] = q[0, n - 1] = 2
        inst = UbqpInstance.from_matrix(q)
        run = assert_descents_agree((inst,), np.zeros(n, dtype=np.int8), None, "best", dtype)
        assert run.x[0].nonzero()[0].tolist() == [0, 5, n - 1]

    @given(st.integers(1, 3 * 64 + 5), st.integers(0, 2**32), st.sampled_from(WIDTHS))
    def test_descents_through_many_ties_match_the_reference(self, n, seed, dtype):
        # Entries in {-1, 0, 1} tie many gains at the largest after a flip.
        upper = np.triu(seeded_rng(seed, 19).integers(-1, 2, size=(n, n)))
        inst = UbqpInstance.from_matrix(upper + np.triu(upper, 1).T)
        x = random_solution(n, seeded_rng(seed, 20))
        assert_descents_agree((inst,), x, None, "best", dtype)

    @pytest.mark.parametrize("dtype", WIDTHS)
    @pytest.mark.parametrize("kind", list(ToyKind))
    def test_local_search_on_a_toy_matches_the_reference(self, kind, dtype, monkeypatch):
        # A toy's flips keep the plain update, and every pivot the scan.
        toy = make_form(kind.value, MAX_N, 5)
        x = random_solution(MAX_N, seeded_rng(5, 2))
        cache = GainCache.build(toy, x)
        oracles.descend(_Run(MAX_N, "best"), [cache], None, "best")
        monkeypatch.setattr(search, "gain_dtype", lambda n, peak: np.dtype(dtype))
        assert np.array_equal(local_search(x, toy), cache.solution)

    @pytest.mark.parametrize("pivot", PIVOT_RULES)
    @pytest.mark.parametrize("weights", [(0, 1), (1, 1)])
    def test_non_positive_blend_is_a_local_optimum(self, pivot, weights):
        # The first form's gains are negative or 0 and the second form's all
        # 0, so every blended gain is 0 or negative and no flip is taken.
        n = MAX_N
        diagonal = -seeded_rng(6).integers(0, 4, size=n)
        diagonal[::3] = 0
        forms = (UbqpInstance.from_matrix(np.diag(diagonal)),
                 UbqpInstance.from_matrix(np.zeros((n, n), dtype=int)))
        run = assert_descents_agree(forms, np.zeros(n, dtype=np.int8), weights, pivot)
        assert not run.x[0].any()

    @pytest.mark.parametrize("weights", [None, (1, 0)])
    def test_gains_past_2_53_are_scanned_exactly(self, weights):
        # From 0 the gains of bits 5, 9, 13, 17 are 2^53 + (1, 2, 3, 5), and
        # the first flip of them makes the other three lose. As doubles they
        # would round to 2^53 + (0, 2, 4, 4) and pick bit 13; the exact
        # maximum is bit 17. The weights (1, 0) of lam = 0 scan the first
        # form's gains as they are; the second form's gains are all 0.
        inst = gains_past_2_53()
        n = inst.n
        forms = (inst, UbqpInstance.from_matrix(np.zeros((n, n), dtype=int)))
        run = assert_descents_agree(forms, np.zeros(n, dtype=np.int8), weights, "best")
        assert run.x[0].nonzero()[0].tolist() == [17]

    @pytest.mark.parametrize("pivot", PIVOT_RULES)
    def test_local_search_matches_the_reference_descent(self, pivot):
        inst = make_instance(30, seed=3)
        x = random_solution(30, seeded_rng(3))
        cache = GainCache.build(inst, x)
        oracles.descend(_Run(30, pivot), [cache], None, pivot)
        assert np.array_equal(local_search(x, inst, pivot), cache.solution)

    @pytest.mark.parametrize("peak", [True, False], ids=["max_abs", "no_max_abs"])
    @pytest.mark.parametrize("name", ["instance", ToyKind.PLUS_MINUS_I.value])
    def test_foreign_forms_stay_on_the_numpy_side(self, name, peak):
        # A form in the quadratic-form protocol that is neither an instance
        # nor a toy, a wrapped toy's dense view included: evaluate and
        # GainCache take it, the kernel does not, with or without max_abs().
        inner = make_form(name, 12, 4)
        form = SimpleNamespace(n=inner.n, materialize=inner.materialize)
        if peak:
            form.max_abs = inner.max_abs
        x = random_solution(12, seeded_rng(4))
        assert evaluate(form, x) == evaluate(inner, x)
        cache = GainCache.build(form, x)
        assert np.array_equal(cache.gains, GainCache.build(inner, x).gains)
        with pytest.raises(TypeError, match="not SimpleNamespace"):
            _Run(12, "best").build(0, form, x)
        with pytest.raises(TypeError, match="not SimpleNamespace"):
            local_search(x, form)

    @pytest.mark.parametrize("name", FORMS)
    def test_a_form_of_another_length_is_rejected(self, name):
        # Before any field of the row is written.
        row = np.zeros(_kernel.CACHE_FIELDS, dtype=np.int64)
        with pytest.raises(ValueError, match="a form on 11 bits in a cache of 12"):
            _kernel.bind(row, make_form(name, 11, 4), 12, np.int64)
        assert not row.any()

    @pytest.mark.parametrize("slot", [0, 1])
    def test_random_toys_enter_by_their_magnitudes(self, slot):
        toy = make_form("random", 12, 4)
        run = _Run(12, "best")
        run.build(slot, toy, np.zeros(12, dtype=np.int8))
        assert run.rows[slot, _kernel.ROW_KIND] == _kernel.FORM_RANDOM
        assert read_at(run, slot, _kernel.ROW_Q) is toy._m
        anchor = read_at(run, slot, _kernel.ROW_ANCHOR)
        assert anchor.dtype == np.int8 and np.array_equal(anchor, toy.anchor)

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("dtype", WIDTHS)
    @pytest.mark.parametrize("kind", [ToyKind.PLUS_MINUS_ONE, ToyKind.PLUS_MINUS_I])
    def test_anchored_toys_enter_by_their_weights(self, kind, dtype, slot):
        # One form for both anchored toys: their weights in the run's width,
        # an int32 copy or the toy's own int64 vector.
        toy = make_form(kind.value, 12, 4)
        run = _Run(12, "best", dtype=dtype)
        run.build(slot, toy, np.zeros(12, dtype=np.int8))
        assert run.rows[slot, _kernel.ROW_KIND] == _kernel.FORM_ANCHORED
        weights = read_at(run, slot, _kernel.ROW_Q)
        assert weights.dtype == dtype and weights.flags.c_contiguous
        assert np.array_equal(weights, toy._w)
        assert (weights is toy._w) == (dtype == np.int64)
        anchor = read_at(run, slot, _kernel.ROW_ANCHOR)
        assert anchor.dtype == np.int8 and np.array_equal(anchor, toy.anchor)

    def test_instances_enter_without_a_copy(self):
        # Also one built from a Fortran-ordered matrix, and into a slot that
        # held a toy, whose anchor the row then no longer points at.
        q = make_instance(12, seed=4).q
        run = _Run(12, "best")
        for inst in (UbqpInstance.from_matrix(q), UbqpInstance.from_matrix(np.asfortranarray(q))):
            run.build(0, make_form("random", 12, 4), np.zeros(12, dtype=np.int8))
            run.build(0, inst, np.zeros(12, dtype=np.int8))
            assert run.rows[0, _kernel.ROW_KIND] == _kernel.FORM_DENSE
            assert len(run.read[0]) == 1 and run.read[0][0] is inst.q
            assert run.rows[0, _kernel.ROW_Q] == inst.q.ctypes.data
            assert run.rows[0, _kernel.ROW_ANCHOR] == 0

    def test_int32_runs_of_an_instance_read_one_copy(self, monkeypatch):
        # Every int32 binding of one instance, in every run, reads one
        # read-only int32 copy of q, made once; int64 bindings read q itself.
        inst = make_instance(45, seed=21)
        assert gain_dtype(inst.n, inst.max_abs()) == np.int32
        read, bind = [], _kernel.bind

        def recorded(row, form, n, dtype):
            arrays = bind(row, form, n, dtype)
            if row[_kernel.ROW_KIND] == _kernel.FORM_DENSE:
                read.append(arrays[0])
            return arrays

        monkeypatch.setattr(_kernel, "bind", recorded)
        _run_logs(inst, "best")
        assert len(read) > 6
        assert len({id(array) for array in read}) == 1
        narrow = read[0]
        assert narrow.dtype == np.int32 and narrow.flags.c_contiguous
        assert not narrow.flags.writeable
        assert np.array_equal(narrow, inst.q)
        assert inst.rows(np.int32) is narrow
        assert inst.rows(np.int64) is inst.q

    def test_entries_past_the_width_are_rejected(self, monkeypatch):
        # Forced onto int32 lanes, a form with an entry past int32 fails
        # before the kernel reads it; -2^31 still fits the run.
        n = 6
        q = np.zeros((n, n), dtype=np.int64)
        q[1, 2] = q[2, 1] = INT32_MAX + 1
        inst = UbqpInstance.from_matrix(q)
        monkeypatch.setattr(search, "gain_dtype", lambda n, peak: np.dtype(np.int32))
        config = SearchConfig(budget=Budget("evals", 1000))
        with pytest.raises(ValueError, match="do not fit int32"):
            ils(inst, config)
        narrow = _Run(n, "best", dtype=np.int32)
        with pytest.raises(ValueError, match="do not fit int32"):
            narrow.build(0, inst, np.zeros(n, dtype=np.int8))
        q[1, 2] = q[2, 1] = -INT32_MAX - 1
        narrow.build(0, UbqpInstance.from_matrix(q), np.zeros(n, dtype=np.int8))
        (rows,) = narrow.read[0]
        assert rows.dtype == np.int32 and np.array_equal(rows, q)


class TestIterationEquivalence:
    @given(st.integers(1, MAX_N), st.integers(0, 2**32), st.sampled_from(FORMS),
           st.one_of(st.none(), st.sampled_from(FORMS)), st.sampled_from(PIVOT_RULES),
           st.booleans(), st.sampled_from(LAMS), st.sampled_from(ALPHAS),
           st.integers(0, 400), st.integers(1, 20000), st.booleans(), st.sampled_from(WIDTHS),
           st.data())
    def test_kernel_matches_numpy_iterations(self, n, seed, first, second, pivot, blend, lam,
                                             alpha, start, budget, halt, dtype, data):
        # One compiled call runs iterations until a stop; the reference runs
        # as many, one at a time, and must end in the same state.
        bits = data.draw(st.integers(1, n), label="bits")
        # Intervals below n * bits put several marks inside one perturbation.
        interval = data.draw(st.one_of(st.none(), st.integers(1, n * bits),
                                       st.floats(0.5, n * bits)), label="interval")
        stop = data.draw(st.integers(start + 1, min(start + 20000, iteration_stop(n, bits, start))),
                         label="stop")
        # A generator with half of its last output buffered, or a fresh one.
        rng = seeded_rng(seed, 2)
        if data.draw(st.booleans(), label="buffered"):
            rng.integers(0, 10, dtype=np.int32)
        slots = (first,) if second is None else (first, second)
        forms = [make_form(name, n, seed + i) for i, name in enumerate(slots)]
        x = random_solution(n, seeded_rng(seed, 1))
        weights = blend_weights(lam, alpha, 0, 0) if blend and len(forms) == 2 else None

        ref, run = (started_run(forms, x, pivot, budget, interval, lam, start, dtype)
                    for _ in range(2))
        assert_iterations_agree(run, ref, weights, bits, rng, stop, halt)

    def test_repeated_blocks_stay_exact(self):
        # Each form kind as the only cache: 50 compiled perturbations of up
        # to n bits, each followed by a descent.
        n = 60
        rng = seeded_rng(21)
        for name in FORMS:
            form = make_form(name, n, int(rng.integers(0, 2**32)))
            x = random_solution(n, rng)
            run = loaded(_Run(n, "best"), [form], x)
            run.value = evaluate(form, x)
            for _ in range(50):
                run.perturb_from(rng, int(rng.integers(1, n + 1)))
                # Stopping one evaluation on runs a single iteration.
                run.iterate(None, True, run.consumed + 1)
                assert run.value == evaluate(form, run.x[0])
                fresh = GainCache.build(form, run.x[0])
                assert np.array_equal(run.gains[0], fresh.gains)
                assert np.array_equal(run.sigma[0], fresh.sigma)


@pytest.mark.parametrize("dtype", WIDTHS)
@pytest.mark.parametrize("pivot", PIVOT_RULES)
def test_random_toys_in_both_slots_match_the_reference(pivot, dtype):
    # The uint8 random form as the first and as the second cache, blended:
    # descents, and iterations of 1, n/4 and n bits.
    n = MAX_N
    forms = [make_form("random", n, seed) for seed in (5, 6)]
    x = random_solution(n, seeded_rng(5, 1))
    weights = blend_weights(0.3, 1.0, 0, 0)
    assert_descents_agree(forms, x, weights, pivot, dtype)
    for bits in (1, n // 4, n):
        start = (forms, x, pivot, 10**6, 97, 0.3, 0, dtype)
        ref, run = started_run(*start), started_run(*start)
        assert_iterations_agree(run, ref, weights, bits, seeded_rng(n, bits),
                                iteration_stop(n, bits), False)


def assert_build_matches_the_reference(form, x, dtype) -> None:
    """A cache the kernel builds at x, in either slot of a run, holds
    `GainCache.build`'s gains, sigma and solution, and its value is f(x);
    the run's scratch is left as found."""
    n = form.n
    run = _Run(n, "best", dtype=dtype)
    ref = GainCache.build(form, x)
    for slot in (0, 1):
        assert run.build(slot, form, x) == evaluate(form, x)
        assert np.array_equal(run.scratch[:n], np.arange(n))
        assert not run.lanes[:n].any()
    assert run.gains.dtype == run.sigma.dtype == dtype
    for ours, theirs in ((run.gains, ref.gains), (run.sigma, ref.sigma), (run.x, ref.solution)):
        assert (ours == theirs).all()


def build_points(n: int, seed: int):
    """x = 0, x = 1 and a random x on n bits."""
    return (np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8),
            random_solution(n, seeded_rng(seed, 3)))


class TestCacheBuilds:
    @pytest.mark.parametrize("dtype", WIDTHS)
    @pytest.mark.parametrize("name", FORMS)
    @pytest.mark.parametrize("n", [1, 2, 7, 64, MAX_N])
    def test_kernel_builds_the_reference_cache(self, n, name, dtype):
        for seed in (0, 1):
            form = make_form(name, n, seed)
            for x in build_points(n, seed):
                assert_build_matches_the_reference(form, x, dtype)

    def test_builds_reject_a_solution_of_another_length(self):
        inst = make_instance(6, seed=4)
        with pytest.raises(ValueError, match="solution length 5 does not match n=6"):
            _Run(6, "best").build(0, inst, np.zeros(5, dtype=np.int8))
        # A solution that fits the run, and a form that does not.
        with pytest.raises(ValueError, match="a form on 5 bits in a cache of 6"):
            _Run(6, "best").build(0, make_instance(5, seed=4), np.zeros(6, dtype=np.int8))
        with pytest.raises(ValueError, match="0 or 1"):
            _Run(6, "best").build(0, inst, [0, 1, 2, 0, 1, 0])

    def test_builds_leave_their_input_alone(self):
        inst = make_instance(9, seed=4)
        x = random_solution(9, seeded_rng(4))
        kept = x.copy()
        run = _Run(9, "best")
        for slot in (0, 1):
            run.build(slot, inst, x)
            assert np.array_equal(x, kept)
        assert not np.shares_memory(run.x, x)


def test_seconds_budget_marks_are_checked_between_descents():
    inst = make_instance(40, seed=8)
    result = lsils(inst, SearchConfig(
        budget=Budget("seconds", 0.3), log_interval=0.05, toy_kind=ToyKind.PLUS_MINUS_I,
        lambda_schedule=LambdaSchedule.constant(0.3, unit="seconds")))
    assert _kernel.library() is not None
    marks = [r.elapsed for r in result.records[:-1]]
    assert len(marks) >= 4
    assert marks == pytest.approx([0.05 * k for k in range(1, len(marks) + 1)])
    assert [r.evaluations for r in result.records] == sorted(r.evaluations for r in result.records)
    assert result.records[-1].best_f == result.best_value == evaluate(inst, result.best_solution)


def _run_logs(inst, pivot, interval=1700, budget=30000):
    """Every run log of a small ils/lsils batch, as written to disk."""
    logs = {}
    for kind in (None, *ToyKind):
        for seed in (0, 1):
            config = SearchConfig(budget=Budget("evals", budget), pivot_rule=pivot,
                                  lambda_schedule=LambdaSchedule.staged_ramp(budget),
                                  toy_kind=kind, seed=seed, log_interval=interval)
            result = lsils(inst, config) if kind else ils(inst, config)
            text = io.StringIO()
            write_runlog_csv(result.records, text)
            logs[result.algo, seed] = (text.getvalue(), result.best_value,
                                       result.best_solution.tobytes(), result.evaluations)
    return logs


@pytest.mark.parametrize("pivot", PIVOT_RULES)
def test_runs_are_byte_identical_on_both_paths(pivot, monkeypatch):
    # The kernel's runs against runs of the reference, one iteration per call.
    inst = make_instance(45, seed=21)
    compiled = _run_logs(inst, pivot)
    run_the_reference(monkeypatch)
    assert _run_logs(inst, pivot) == compiled


def test_runs_are_byte_identical_at_both_widths(monkeypatch):
    # The same runs on int32 gain lanes, which this instance's bound
    # allows, and on int64 lanes.
    inst = make_instance(45, seed=21)
    kernel = KernelCalls(_kernel.library())
    monkeypatch.setattr(_kernel, "library", lambda: kernel)
    logs = {}
    for dtype in WIDTHS:
        monkeypatch.setattr(search, "gain_dtype", lambda n, peak: dtype)
        kernel.entries.clear()
        logs[dtype] = _run_logs(inst, "best")
        assert set(kernel.entries) == {_kernel.entry_name("iterate", dtype)}
    assert logs[WIDTHS[0]] == logs[WIDTHS[1]]


# Instances at the int32 gain bound have BOUND_N bits, across one whole
# 64-entry scan block and a tail.
BOUND_N = 70


def bound_instance(n: int, above: bool, negative: float) -> UbqpInstance:
    """Entries +-m, m the largest with (2n + 1) m <= 2^31 - 1, or m + 1 when
    `above`; the diagonal is +m and a share `negative` of the others is -m.

    With no negative entry, at x = 1 every gain is -(2n - 1) m, and a
    perturbation that flips bit p takes it through 2 Q_pp - g_p = (2n + 1) m,
    the bound itself."""
    m = INT32_MAX // (2 * n + 1) + above
    signs = np.where(seeded_rng(n, 17).random((n, n)) < negative, -1, 1)
    upper = np.triu(signs, 1)
    return UbqpInstance.from_matrix(m * (upper + upper.T + np.eye(n, dtype=np.int64)))


def largest_instance(n: int) -> UbqpInstance:
    """The largest instance `UbqpInstance` accepts on n <= 2 bits, every entry
    m = INT64_MAX // (2n + 1): at x = 1 a perturbation takes the int64
    gains through (2n + 1) m, the bound itself (see `bound_instance`)."""
    return UbqpInstance.from_matrix(np.full((n, n), INT64_MAX // (2 * n + 1)))


def check_bound_cases(inst: UbqpInstance, dtype) -> None:
    """The kernel against the reference on `inst` with gain lanes of `dtype`:
    cache builds of `inst` and of -inst at x = 0, x = 1 and a random x, then
    descents and iterations from x = 1 and from a random x, with one cache,
    and with two blended at weights (1, 1), under both pivot rules."""
    n = inst.n
    flipped = UbqpInstance.from_matrix(-inst.q)
    for form in (inst, flipped):
        for x in build_points(n, n):
            assert_build_matches_the_reference(form, x, dtype)
    for x in (np.ones(n, dtype=np.int8), random_solution(n, seeded_rng(n, 18))):
        for pivot in PIVOT_RULES:
            for forms, weights in (((inst,), None), ((inst, flipped), (1, 1))):
                assert_descents_agree(forms, x, weights, pivot, dtype)
                for bits in sorted({1, max(n // 4, 1), n}):
                    start = (forms, x, pivot, 10**6, 97, 0.5, 0, dtype)
                    ref, run = started_run(*start), started_run(*start)
                    assert_iterations_agree(run, ref, weights, bits, seeded_rng(n, bits),
                                            iteration_stop(n, bits), False)


def bound_descent(above: bool, dtype) -> None:
    """A one-cache best-improvement descent with gain lanes of `dtype` on the
    instance at the int32 bound, or just above it, with no negative entry,
    from x = 1 but for its last bit. That bit gains (2n - 1) m, and its flip
    first sets its gain to -(2n - 1) m - 2 Q_kk = -(2n + 1) m, the bound
    itself (see `bound_instance`)."""
    x = np.ones(BOUND_N, dtype=np.int8)
    x[-1] = 0
    run = assert_descents_agree((bound_instance(BOUND_N, above, 0.0),), x, None, "best", dtype)
    assert run.x[0].all()


@pytest.mark.parametrize("dtype", WIDTHS)
@pytest.mark.parametrize("negative", [0.0, 0.3])
def test_kernel_matches_the_reference_at_the_int32_bound(negative, dtype):
    inst = bound_instance(BOUND_N, False, negative)
    assert gain_dtype(inst.n, inst.max_abs()) == np.int32
    check_bound_cases(inst, dtype)


@pytest.mark.parametrize("negative", [0.0, 0.3])
def test_kernel_matches_the_reference_just_above_the_int32_bound(negative):
    inst = bound_instance(BOUND_N, True, negative)
    assert gain_dtype(inst.n, inst.max_abs()) == np.int64
    check_bound_cases(inst, np.int64)


@pytest.mark.parametrize(("above", "dtype"), [(False, np.int32), (False, np.int64),
                                               (True, np.int64)])
def test_a_descent_flip_reaches_the_int32_bound(above, dtype):
    assert gain_dtype(BOUND_N, bound_instance(BOUND_N, above, 0.0).max_abs()) == (
        np.int64 if above else np.int32)
    bound_descent(above, dtype)


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_matches_the_reference_on_the_largest_small_instances(n):
    check_bound_cases(largest_instance(n), np.int64)


@pytest.mark.parametrize("above", [False, True])
def test_bound_runs_take_their_width_and_match_the_reference(above, monkeypatch):
    # Whole runs on an instance at the int32 bound take the int32 lanes,
    # and just above it the int64 lanes, and match the reference's runs.
    inst = bound_instance(45, above, 0.3)
    kernel = KernelCalls(_kernel.library())
    monkeypatch.setattr(_kernel, "library", lambda: kernel)
    compiled = _run_logs(inst, "best")
    assert set(kernel.entries) == {_kernel.entry_name("iterate", np.int64 if above else np.int32)}
    run_the_reference(monkeypatch)
    assert _run_logs(inst, "best") == compiled


SANITIZED_RUN = """
import ctypes, sys
sys.path[:0] = {paths!r}
import numpy as np
from lsils import _kernel
_kernel._build = lambda: ctypes.CDLL({library!r})
from test_kernel import (BOUND_N, bound_descent, bound_instance, check_bound_cases,
                         largest_instance, whole_runs)
{call}
"""


def whole_runs() -> None:
    """A random-toy LS-ILS run, which draws toys and swap targets from the
    kernel's streams, and an ILS run on one bit, which draws none."""
    config = SearchConfig(budget=Budget("evals", 30000), toy_kind=ToyKind.RANDOM,
                          lambda_schedule=LambdaSchedule.constant(0.5), log_interval=1700)
    lsils(make_instance(45, seed=21), config)
    ils(make_instance(1, seed=2), SearchConfig(budget=Budget("evals", 1000), log_interval=7))


def test_int32_lanes_do_not_overflow_at_the_bound(tmp_path):
    # A build that traps on signed overflow runs the int32 cases at the
    # bound, a descent whose first flip reaches it, the largest 1-bit and
    # 2-bit instances on int64 lanes, and whole runs; forced onto int32
    # lanes just above the int32 bound, the same build traps, in the cases
    # and in the descent.
    library = tmp_path / "trapping.so"
    try:
        subprocess.run([_kernel._compiler(), *_kernel.FLAGS, "-fsanitize=signed-integer-overflow",
                        "-fsanitize-undefined-trap-on-error", "-o", str(library),
                        str(_kernel.SOURCE)], check=True, capture_output=True)
    except subprocess.CalledProcessError as exc:
        pytest.skip(f"the compiler rejects the sanitizer: {exc.stderr.decode()[-300:]}")
    paths = [str(Path(__file__).parent), str(_kernel.SOURCE.parents[1])]
    cases = [(f"check_bound_cases(bound_instance(BOUND_N, {above}, {negative}), np.int32)", above)
             for above, negative in ((False, 0.0), (False, 0.3), (True, 0.0))]
    cases += [(f"bound_descent({above}, np.int32)", above) for above in (False, True)]
    cases += [(f"check_bound_cases(largest_instance({n}), np.int64)", False) for n in (1, 2)]
    cases += [("whole_runs()", False)]
    for call, above in cases:
        script = SANITIZED_RUN.format(paths=paths, library=str(library), call=call)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True)
        if above:
            assert done.returncode < 0, "no trap on int32 lanes past the bound"
        else:
            assert done.returncode == 0, done.stderr.decode()[-2000:]


class KernelCalls:
    """The loaded kernel, with the state vector of every `lsils_iterate_*` call
    kept as it was passed in and as it returned, the entry point's name, and
    the number of caches, and the cache rows, scratch, lanes, state vector
    and best solution addresses, it was given."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = []  # (state in, state out)
        self.entries = []
        self.addresses = []  # (caches, rows, scratch, lanes, state, best_x)

    def __getattr__(self, name):
        entry = getattr(self.lib, name)
        if not name.startswith("lsils_iterate_"):
            return entry

        def iterate(*args):
            state = (ctypes.c_int64 * _kernel.ST_SIZE).from_address(args[8])
            entered = state_slots(state)
            entry(*args)
            self.calls.append((entered, state_slots(state)))
            self.entries.append(name)
            self.addresses.append((args[1], args[0], *args[6:10]))
        return iterate


ST_NAMES = sorted((name for name in vars(_kernel) if name.startswith("ST_") and name != "ST_SIZE"),
                  key=lambda name: getattr(_kernel, name))


def state_slots(state) -> dict:
    """A state vector's slots by name, and its stream's buffered-word flag
    as PCG_HAS_UINT32."""
    slots = dict(zip(ST_NAMES, state))
    slots["PCG_HAS_UINT32"] = state[_kernel.ST_STREAM + _kernel.PCG_HAS_UINT32]
    return slots


def _stopped_at(st, at_budget: bool) -> bool:
    """A perturbing call that ended at its stop count: the budget's end, or a lambda step."""
    return (st["ST_ROUNDS"] > 0 and st["ST_CONSUMED"] >= st["ST_STOP"]
            and (st["ST_STOP"] == 30000) == at_budget)


# Settings under which the compiled loop must stop at an awkward point of
# the n = 45 runs, or stamp an awkward set of marks, each with a check, on
# the kernel calls (state in, state out) and the runs' evaluation columns,
# that the runs reached it: log interval, check.
LOOP_EDGES = {
    # A scan charge of up to 45 passes two marks, a perturbation many.
    "interval-below-n": (20, lambda calls, logs: any(len(set(e)) < len(e) for e in logs)),
    "fractional-interval": (333.7, lambda calls, logs: True),
    # About 5000 marks per run, over 1000 of them stamped in one call.
    "many-marks": (6, lambda calls, logs: any(
        out["ST_MARKED"] - into["ST_MARKED"] > 1000 for into, out in calls)),
    # A call that ends at a lambda step, and one at the budget's end.
    "stop-at-a-step": (1700, lambda calls, logs: any(_stopped_at(out, False) for _, out in calls)),
    "stop-at-the-budget": (1700, lambda calls, logs: any(
        _stopped_at(out, True) for _, out in calls)),
    # A call that perturbs first from the half-word an earlier call left buffered.
    "half-word-across-calls": (1700, lambda calls, logs: any(
        into["ST_ROUNDS"] and into["PCG_HAS_UINT32"] for into, _ in calls)),
}


@pytest.mark.parametrize("pivot", PIVOT_RULES)
@pytest.mark.parametrize("edge", sorted(LOOP_EDGES))
def test_loop_edges_are_byte_identical_on_both_paths(edge, pivot, monkeypatch):
    interval, reached = LOOP_EDGES[edge]
    inst = make_instance(45, seed=21)
    kernel = KernelCalls(_kernel.library())
    monkeypatch.setattr(_kernel, "library", lambda: kernel)
    compiled = _run_logs(inst, pivot, interval, 30000)
    run_the_reference(monkeypatch)
    assert _run_logs(inst, pivot, interval, 30000) == compiled
    logs = [[row.split(",")[1] for row in text.splitlines()[1:]]
            for text, *_ in compiled.values()]
    assert reached(kernel.calls, logs)


@pytest.mark.parametrize("kind", [None, *ToyKind])
def test_log_marks_take_no_kernel_calls(kind, monkeypatch):
    # The kernel stamps every mark in place, so a run logging about 5000
    # marks makes the calls the same run makes without a log interval.
    inst = make_instance(45, seed=21)
    kernel = KernelCalls(_kernel.library())
    monkeypatch.setattr(_kernel, "library", lambda: kernel)
    calls = []
    for interval in (6, None):
        kernel.calls.clear()
        config = SearchConfig(budget=Budget("evals", 30000), toy_kind=kind,
                              lambda_schedule=LambdaSchedule.staged_ramp(30000),
                              log_interval=interval)
        (lsils if kind else ils)(inst, config)
        calls.append(len(kernel.calls))
    assert calls[0] == calls[1] > 1


def test_a_run_keeps_one_state(monkeypatch):
    # Every call of a random-toy LS-ILS run, over the plain cache and over
    # every rebuilt toy's, gets the run's one array of cache rows, scratch,
    # lanes, state vector and best solution.
    built = []

    def counted(kind, anchor, seed=0):
        built.append(seed)
        return construct_toy(kind, anchor, seed=seed)

    monkeypatch.setattr(search, "construct_toy", counted)
    kernel = KernelCalls(_kernel.library())
    monkeypatch.setattr(_kernel, "library", lambda: kernel)
    lsils(make_instance(45, seed=21), SearchConfig(
        budget=Budget("evals", 30000), toy_kind=ToyKind.RANDOM, log_interval=1700,
        lambda_schedule=LambdaSchedule.constant(0.5)))
    assert len(built) > 1
    assert {caches for caches, *_ in kernel.addresses} == {1, 2}
    assert len({tuple(buffers) for _, *buffers in kernel.addresses}) == 1


def assert_plain_build_runs_as_the_dispatched_one(pivot, dtype, tmp_path, monkeypatch, *flags):
    # A compiler without __has_attribute builds each lsils_iterate_* once,
    # with no per-CPU clones and no forced inlining, as on a platform
    # without ifunc. The runs take gain lanes of `dtype`.
    inst = make_instance(MAX_N, seed=22)
    assert gain_dtype(inst.n, inst.max_abs()) == np.int32
    monkeypatch.setattr(search, "gain_dtype", lambda n, peak: np.dtype(dtype))
    dispatched = _run_logs(inst, pivot)
    plain = tmp_path / "plain.so"
    subprocess.run([_kernel._compiler(), "-D__has_attribute(x)=0", *flags, *_kernel.FLAGS,
                    "-o", str(plain), str(_kernel.SOURCE)], check=True, capture_output=True)
    assert re.search(rb"lsils_iterate_i\d+\.resolver", plain.read_bytes()) is None
    monkeypatch.setattr(_kernel, "_build", lambda: ctypes.CDLL(str(plain)))
    _kernel._load.cache_clear()
    try:
        assert _run_logs(inst, pivot) == dispatched
    finally:
        _kernel._load.cache_clear()


def test_v4_clone_multiplies_no_int64_vectors(tmp_path):
    # The gain updates negate under masks and the blend runs in doubles, so
    # the AVX-512 clone of each width's lsils_iterate_* has no vpmullq,
    # AVX-512's slow 64-bit multiply.
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        pytest.skip("the per-CPU clones are built on x86-64 with glibc")
    try:
        compiler = _kernel._compiler()
    except OSError:
        pytest.skip("no C compiler")
    assembly = tmp_path / "kernel.s"
    subprocess.run([compiler, *_kernel.FLAGS, "-S", "-o", str(assembly), str(_kernel.SOURCE)],
                   check=True, capture_output=True)
    clones = re.findall(r"^(lsils_\w+)\.arch_x86_64_v4:$(.*?)^\s*\.size\s+\1\.arch",
                        assembly.read_text(), flags=re.MULTILINE | re.DOTALL)
    if not clones:
        pytest.skip("the compiler builds no target_clones")
    assert sorted(name for name, _ in clones) == sorted(
        _kernel.entry_name("iterate", dtype) for dtype in WIDTHS)
    for name, code in clones:
        assert "vpmullq" not in code, name


@pytest.mark.parametrize("dtype", WIDTHS)
@pytest.mark.parametrize("pivot", PIVOT_RULES)
def test_plain_build_runs_as_the_dispatched_one(pivot, dtype, tmp_path, monkeypatch):
    assert_plain_build_runs_as_the_dispatched_one(pivot, dtype, tmp_path, monkeypatch)


# The /proc/cpuinfo flags an x86-64 level needs, each level including the last.
_V2_FLAGS = ("cx16", "lahf_lm", "popcnt", "pni", "sse4_1", "sse4_2", "ssse3")
_V3_FLAGS = _V2_FLAGS + ("abm", "avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "movbe", "xsave")
LEVEL_FLAGS = {
    "x86-64-v3": _V3_FLAGS,
    "x86-64-v4": _V3_FLAGS + ("avx512bw", "avx512cd", "avx512dq", "avx512f", "avx512vl"),
}


def cpu_flags() -> set[str]:
    try:
        found = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.MULTILINE)
    except OSError:
        return set()
    return set(found.group(1).split()) if found else set()


@pytest.mark.parametrize("dtype", WIDTHS)
@pytest.mark.parametrize("pivot", PIVOT_RULES)
@pytest.mark.parametrize("level", sorted(LEVEL_FLAGS))
def test_level_build_runs_as_the_dispatched_one(level, pivot, dtype, tmp_path, monkeypatch):
    # The code of one per-CPU clone as the only function, so that each
    # level's vector code runs, not only the one the loader picks here.
    if platform.machine() != "x86_64":
        pytest.skip("the per-CPU clones are x86-64 levels")
    missing = set(LEVEL_FLAGS[level]) - cpu_flags()
    if missing:
        pytest.skip(f"the CPU lacks {' '.join(sorted(missing))}")
    assert_plain_build_runs_as_the_dispatched_one(pivot, dtype, tmp_path, monkeypatch,
                                                  f"-march={level}")
