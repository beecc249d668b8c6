"""``load``/``save`` targets: the two fixed store schemes and their
runtime integration.

``load``/``save`` resolve ``file://`` and ``mem://`` targets through
:mod:`repro.datastore`; the key behavioural claim is *trace parity* —
the same script charges identical communication against hosted data as
against a provider sample file, so traces stay bit-identical — and one
resolver: compile-time typing, the run and the interpreter read the same
object.
"""

import hashlib
import os
import sys
import threading

import numpy as np
import pytest

from repro import datastore
from repro.datastore import StoreError, is_store_url
from repro.errors import MatlabRuntimeError, OtterError
from repro.frontend.mfile import DictProvider
from repro.interp.interpreter import run_source
from repro.mpi.machine import MEIKO_CS2
from repro.service.cache import get_compile_cache
from repro.trace import canonical_events


def _put_matrix(url, matrix):
    datastore.save(url, [matrix])


def _get_matrix(url):
    return datastore.load_data(url, None)


# ---------------------------------------------------------------------- #
# URL plumbing
# ---------------------------------------------------------------------- #


def test_parse_url_and_predicate():
    assert is_store_url("s3://b/k") and not is_store_url("plain.dat")
    datastore.put("MEM://bucket/key.dat", b"1\n")      # scheme: any case
    assert datastore.get("mem://bucket/key.dat") == b"1\n"
    with pytest.raises(StoreError):
        datastore.get("no-scheme-here")


def test_unknown_scheme_names_the_known_ones():
    with pytest.raises(StoreError) as err:
        datastore.get("s3://x/y")   # once a stub; the schemes are fixed
    assert "s3:// (known: file, mem)" in str(err.value)
    assert datastore.SCHEMES == ("file", "mem")


# ---------------------------------------------------------------------- #
# the schemes
# ---------------------------------------------------------------------- #


def test_mem_store_object_lifecycle():
    with pytest.raises(StoreError):
        datastore.get("mem://a/b")
    datastore.put("mem://a/b", b"123")
    assert datastore.get("mem://a/b") == b"123"
    datastore.put("mem://a/b", bytearray(b"456"))
    assert datastore.get("mem://a/b") == b"456"
    with pytest.raises(StoreError) as err:
        datastore.load_data("mem://a/absent", None)
    assert "mem://a/absent: no such object" in str(err.value)


def test_file_store_round_trip(tmp_path):
    url = f"file://{tmp_path}/sub/grid.dat"
    matrix = np.arange(12.0).reshape(3, 4) / 7.0
    _put_matrix(url, matrix)
    np.testing.assert_array_equal(_get_matrix(url), matrix)
    assert os.listdir(tmp_path / "sub") == ["grid.dat"]


def test_file_store_concurrent_puts_to_one_path_publish_one_payload(tmp_path):
    """Sessions of one server process are threads: their temp files must
    not collide (a pid-only temp name let one ``os.replace`` find the
    file already moved, or publish interleaved bytes)."""
    target = str(tmp_path / "out" / "grid.dat")
    url = f"file://{target}"
    nthreads, rounds = 8, 10
    payloads = [bytes([65 + i]) * 300_000 for i in range(nthreads)]
    barrier = threading.Barrier(nthreads)
    failures: list = []

    def session(i):
        try:
            for _ in range(rounds):
                barrier.wait(timeout=30)
                datastore.put(url, payloads[i])
        except Exception as exc:  # noqa: BLE001 — collected for the assert
            failures.append((i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=session, args=(i,))
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert datastore.get(url) in payloads
    assert os.listdir(tmp_path / "out") == ["grid.dat"]


def test_file_store_put_failure_is_a_store_error(tmp_path):
    (tmp_path / "plain").write_text("a file, not a directory")
    with pytest.raises(StoreError) as err:
        datastore.put(f"file://{tmp_path}/plain/x.dat", b"data")
    assert "file://" in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]


def test_matrix_text_round_trip_is_exact():
    # %.17g round-trips every float64 exactly
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((5, 3))
    _put_matrix("mem://m", matrix)
    np.testing.assert_array_equal(_get_matrix("mem://m"), matrix)


# ---------------------------------------------------------------------- #
# runtime integration: load/save through the manager
# ---------------------------------------------------------------------- #

LOAD_SRC = "a = load('{target}');\nb = a * 2;\ndisp(sum(sum(b)));\n"


def _run(source, provider=None, nprocs=4, **kw):
    outcome = get_compile_cache().get_or_compile(source, provider=provider)
    return outcome.program.run(nprocs=nprocs, machine=MEIKO_CS2,
                               trace=True, **kw)


def test_hosted_load_matches_provider_sample_bit_for_bit():
    """Same data via mem:// and via a provider sample file: identical
    output, modeled time, and canonical trace (the parity contract the
    load() comm charges are written to keep)."""
    data = np.arange(36.0).reshape(6, 6)
    _put_matrix("mem://host/grid", data)
    hosted = _run(LOAD_SRC.format(target="mem://host/grid"))

    provider = DictProvider({}, data_files={"grid.dat": data})
    sampled = _run(LOAD_SRC.format(target="grid.dat"), provider=provider)

    assert hosted.output == sampled.output
    assert hosted.elapsed == sampled.elapsed

    def sha(result):
        return hashlib.sha256(
            canonical_events(result.trace).encode("utf-8")).hexdigest()

    assert sha(hosted) == sha(sampled)


def test_save_to_store_url_publishes_through_the_manager():
    data = np.ones((4, 4)) * 3.0
    _put_matrix("mem://host/in", data)
    src = ("a = load('mem://host/in');\n"
           "b = a + 1;\n"
           "save('mem://host/out', b);\n"
           "disp(sum(sum(b)));\n")
    result = _run(src)
    assert "64" in result.output
    out = _get_matrix("mem://host/out")
    np.testing.assert_array_equal(out, np.ones((4, 4)) * 4.0)


def test_missing_hosted_object_is_a_clean_compile_diagnostic():
    from repro.errors import InferenceError

    with pytest.raises(InferenceError) as err:
        _run(LOAD_SRC.format(target="mem://host/absent"))
    assert "sample data file" in str(err.value)


def test_interp_load_resolves_store_urls():
    data = np.arange(4.0).reshape(2, 2)
    _put_matrix("mem://i/x", data)
    interp = run_source("a = load('mem://i/x');\ndisp(sum(sum(a)));\n")
    assert "6" in "".join(interp.output)
    with pytest.raises(MatlabRuntimeError):
        run_source("a = load('mem://i/absent');\n")


def test_complex_save_to_store_is_rejected():
    src = "z = [1, 2] * 1i;\nsave('mem://c', z);\n"
    with pytest.raises(OtterError) as err:     # rank 0 failed: save: ...
        _run(src, nprocs=2)
    assert "save: only real numbers" in str(err.value)
    with pytest.raises(MatlabRuntimeError):
        run_source(src)
    with pytest.raises(StoreError):
        datastore.get("mem://c")


def test_typing_the_run_and_the_interpreter_read_one_hosted_object():
    """One resolver: the object the compiler typed ``a`` from (an
    integer matrix) is the one the run and the interpreter load."""
    _put_matrix("mem://one/x", np.arange(1.0, 7.0).reshape(2, 3))
    src = "a = load('mem://one/x');\ndisp(a);\n"
    outcome = get_compile_cache().get_or_compile(src)
    assert outcome.full.types.loads == {
        "mem://one/x": datastore.data_digest(_get_matrix("mem://one/x"))}
    ran = outcome.program.run(nprocs=2, machine=MEIKO_CS2).output
    assert ran == "".join(run_source(src).output)
    assert ran.split() == ["1", "2", "3", "4", "5", "6"]


@pytest.mark.parametrize("value", ["[1, 2; 3, 4]", "[0.1, -2.5e-7]", "7"])
def test_interpreter_and_compiled_save_publish_identical_text(value):
    src = f"a = {value};\nsave('mem://k', a, a + 1);\n"
    run_source(src)
    oracle = datastore.get("mem://k")
    for backend in ("fused", "lockstep"):
        datastore._MEM.clear()
        _run(src, nprocs=3, backend=backend)
        assert datastore.get("mem://k") == oracle
