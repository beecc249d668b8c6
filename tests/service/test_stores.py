"""Pluggable URL-schema datastores and their runtime integration.

``load``/``save`` resolve ``scheme://`` targets through a
:class:`StoreManager`; the key behavioural claim is *trace parity* —
the same script charges identical communication against hosted data as
against a provider sample file, so traces stay bit-identical.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.errors import MatlabRuntimeError
from repro.frontend.mfile import DictProvider
from repro.interp.interpreter import run_source
from repro.mpi.machine import MEIKO_CS2
from repro.runtime.context import RuntimeContext
from repro.service.cache import get_compile_cache
from repro.service.stores import (
    DataStore,
    FileStore,
    MemStore,
    StoreError,
    StoreManager,
    default_manager,
    is_store_url,
    parse_url,
    set_default_manager,
)
from repro.trace import canonical_events


# ---------------------------------------------------------------------- #
# URL plumbing
# ---------------------------------------------------------------------- #


def test_parse_url_and_predicate():
    assert parse_url("mem://bucket/key.dat") == ("mem", "bucket/key.dat")
    assert parse_url("FILE:///tmp/x")[0] == "file"
    assert is_store_url("s3://b/k") and not is_store_url("plain.dat")
    with pytest.raises(StoreError):
        parse_url("no-scheme-here")


def test_unknown_scheme_names_the_known_ones():
    with pytest.raises(StoreError) as err:
        StoreManager().resolve("s3://x/y")   # once a stub; now unregistered
    assert "s3:// (known: file, mem)" in str(err.value)


def test_register_replaces_factory_and_instance():
    manager = StoreManager()
    first = manager.store_for("mem")
    manager.register("mem", MemStore)
    assert manager.store_for("mem") is not first
    assert manager.schemes() == ["file", "mem"]


# ---------------------------------------------------------------------- #
# the schemes
# ---------------------------------------------------------------------- #


def test_mem_store_object_lifecycle():
    store = MemStore()
    assert not store.exists("a/b")
    store.put("a/b", b"123")
    assert store.exists("a/b") and store.get("a/b") == b"123"
    store.put("a/c", b"456")
    assert store.listdir("a") == ["a/b", "a/c"]
    store.delete("a/b")
    with pytest.raises(StoreError):
        store.get("a/b")
    with pytest.raises(StoreError):
        store.delete("a/b")


def test_file_store_round_trip(tmp_path):
    manager = StoreManager()
    url = f"file://{tmp_path}/sub/grid.dat"
    matrix = np.arange(12.0).reshape(3, 4) / 7.0
    manager.save_matrix(url, matrix)
    assert manager.exists(url)
    np.testing.assert_array_equal(manager.load_matrix(url), matrix)
    store = FileStore()
    assert "grid.dat" in store.listdir(str(tmp_path) + "/sub")
    store.delete(f"{tmp_path}/sub/grid.dat")
    assert not manager.exists(url)


def test_file_store_concurrent_puts_to_one_path_publish_one_payload(tmp_path):
    """Sessions of one server process are threads: their temp files must
    not collide (a pid-only temp name let one ``os.replace`` find the
    file already moved, or publish interleaved bytes)."""
    store = FileStore()
    target = str(tmp_path / "out" / "grid.dat")
    nthreads, rounds = 8, 10
    payloads = [bytes([65 + i]) * 300_000 for i in range(nthreads)]
    barrier = threading.Barrier(nthreads)
    failures: list = []

    def session(i):
        try:
            for _ in range(rounds):
                barrier.wait(timeout=30)
                store.put(target, payloads[i])
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
    assert store.get(target) in payloads
    assert store.listdir(str(tmp_path / "out")) == ["grid.dat"]


def test_file_store_put_failure_is_a_store_error(tmp_path):
    (tmp_path / "plain").write_text("a file, not a directory")
    with pytest.raises(StoreError) as err:
        FileStore().put(f"{tmp_path}/plain/x.dat", b"data")
    assert "file://" in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]


def test_matrix_text_round_trip_is_exact():
    # %.17g round-trips every float64 exactly
    store = MemStore()
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((5, 3))
    store.save_matrix("m", matrix)
    np.testing.assert_array_equal(store.load_matrix("m"), matrix)


class FakeBucketClient:
    """An object-store client surface (the boto3 shape), over a dict."""

    def __init__(self):
        self.objects = {}

    def get_object(self, Bucket, Key):
        import io

        if (Bucket, Key) not in self.objects:
            raise KeyError(Key)
        return {"Body": io.BytesIO(self.objects[(Bucket, Key)])}

    def put_object(self, Bucket, Key, Body):
        self.objects[(Bucket, Key)] = bytes(Body)


class BucketStore(DataStore):
    """What a user-supplied object store looks like: a ``DataStore``
    over an injected client, registered under its own scheme."""

    scheme = "bucket"

    def __init__(self, client):
        self._client = client

    @staticmethod
    def _split(path):
        bucket, _, key = path.partition("/")
        if not bucket or not key:
            raise StoreError(f"bucket://{path}: need bucket://bucket/key")
        return bucket, key

    def get(self, path):
        bucket, key = self._split(path)
        try:
            return self._client.get_object(
                Bucket=bucket, Key=key)["Body"].read()
        except Exception as exc:
            raise StoreError(f"bucket://{path}: {exc}") from exc

    def put(self, path, data):
        bucket, key = self._split(path)
        self._client.put_object(Bucket=bucket, Key=key, Body=bytes(data))

    def exists(self, path):
        return self._split(path) in self._client.objects


def test_registered_scheme_with_injected_client():
    """``StoreManager.register`` is the extension point: a store for a
    service the repo does not ship (the deleted ``s3://`` stub's job)
    is one subclass plus one call."""
    client = FakeBucketClient()
    manager = StoreManager()
    manager.register("bucket", lambda: BucketStore(client))
    assert manager.schemes() == ["bucket", "file", "mem"]

    manager.put("bucket://b/data/x.dat", b"1 2 3\n")
    assert manager.exists("bucket://b/data/x.dat")
    assert manager.get("bucket://b/data/x.dat") == b"1 2 3\n"
    assert client.objects == {("b", "data/x.dat"): b"1 2 3\n"}
    with pytest.raises(StoreError):
        manager.get("bucket://b/missing.dat")
    with pytest.raises(StoreError):
        manager.get("bucket://bucket-without-key")


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
    default_manager().save_matrix("mem://host/grid", data)
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
    default_manager().save_matrix("mem://host/in", data)
    src = ("a = load('mem://host/in');\n"
           "b = a + 1;\n"
           "save('mem://host/out', b);\n"
           "disp(sum(sum(b)));\n")
    result = _run(src)
    assert "64" in result.output
    out = default_manager().load_matrix("mem://host/out")
    np.testing.assert_array_equal(out, np.ones((4, 4)) * 4.0)


def test_explicit_store_manager_overrides_the_default():
    private = StoreManager()
    data = np.full((3, 3), 2.0)
    # compile-time sample inference reads the *default* manager;
    # execution then resolves through the run's own manager
    default_manager().save_matrix("mem://iso/x", data)
    private.save_matrix("mem://iso/x", data * 10)
    src = "a = load('mem://iso/x');\ndisp(sum(sum(a)));\n"
    outcome = get_compile_cache().get_or_compile(src)
    result = outcome.program.run(nprocs=2, machine=MEIKO_CS2, stores=private)
    assert "180" in result.output


def test_missing_hosted_object_is_a_clean_compile_diagnostic():
    from repro.errors import InferenceError

    with pytest.raises(InferenceError) as err:
        _run(LOAD_SRC.format(target="mem://host/absent"))
    assert "sample data file" in str(err.value)


def test_interp_load_resolves_store_urls():
    data = np.arange(4.0).reshape(2, 2)
    default_manager().save_matrix("mem://i/x", data)
    interp = run_source("a = load('mem://i/x');\ndisp(sum(sum(a)));\n")
    assert "6" in "".join(interp.output)
    with pytest.raises(MatlabRuntimeError):
        run_source("a = load('mem://i/absent');\n")


def test_registered_scheme_hosted_run_with_injected_client():
    manager = StoreManager()
    manager.register("bucket", lambda: BucketStore(FakeBucketClient()))
    # compile-time sample inference reads the process default manager
    previous = set_default_manager(manager)
    try:
        manager.save_matrix("bucket://lab/runs/a.dat", np.full((4, 4), 5.0))
        result = _run(LOAD_SRC.format(target="bucket://lab/runs/a.dat"),
                      nprocs=2)
    finally:
        set_default_manager(previous)
    assert "160" in result.output


def test_complex_save_to_store_is_rejected():
    with pytest.raises(MatlabRuntimeError):
        RuntimeContext._render_saved([np.ones((2, 2)) * 1j])
