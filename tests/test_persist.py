"""The persistent code cache (repro.persist): warm starts, integrity
rejection, version/fingerprint gating, concurrent writers, and the
bit-identical-replay differential.

Every test drives the cache through the public surfaces — a ``Process``
with ``codecache_dir`` or an ``Engine(codecache_dir=...)`` — and tampers
with the on-disk JSON directly to model corruption, truncation, and
foreign-format entries.
"""

from __future__ import annotations

import glob
import json
import os
import threading

import pytest

from repro import Engine, TccCompiler
from repro.persist import (
    FORMAT_VERSION,
    decode_template,
    payload_digest,
    program_namespace,
)
from repro.serving import ChaosPlan
from repro.telemetry.metrics import REGISTRY

ADDER = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}
"""

MULDIV = """
int make_muldiv(int a, int b) {
    int vspec p = param(int, 0);
    int cspec c = `(($a * p) / $b);
    return (int)compile(c, int);
}
"""

SQUARE = """
static int sq(int v) { return v * v; }
int make_sq(int n) {
    int vspec x = param(int, 0);
    return (int)compile(`(sq(x) + $n), int);
}
"""


def _proc(source=ADDER, **options):
    return TccCompiler().compile(source).start(**options)


def _entry_files(root):
    return sorted(glob.glob(os.path.join(str(root), "*", "*", "*.json")))


def _warm(tmp_path, n=10):
    """Cold-compile one adder shape into ``tmp_path`` and flush it."""
    proc = _proc(codecache_dir=str(tmp_path))
    entry = proc.run("make_adder", n)
    assert proc._compile_path == "cold"
    assert proc.function(entry, "i", "i")(5) == n + 5
    proc.codecache.flush()
    files = _entry_files(tmp_path)
    assert len(files) == 1
    return files[0]


class TestWarmStart:
    def test_fresh_process_serves_seen_shape_via_patching(self, tmp_path):
        _warm(tmp_path, n=10)
        proc = _proc(codecache_dir=str(tmp_path))
        entry = proc.run("make_adder", 10)
        assert proc._compile_path == "patched", \
            "fresh process cold-compiled a persisted shape"
        assert proc.function(entry, "i", "i")(5) == 15

    def test_new_bindings_of_a_seen_shape_also_patch(self, tmp_path):
        _warm(tmp_path, n=10)
        proc = _proc(codecache_dir=str(tmp_path))
        entry = proc.run("make_adder", 77)   # same shape, unseen $n
        assert proc._compile_path == "patched"
        assert proc.function(entry, "i", "i")(1) == 78

    def test_unseen_shape_still_compiles_cold(self, tmp_path):
        _warm(tmp_path)
        proc = _proc(MULDIV, codecache_dir=str(tmp_path))
        entry = proc.run("make_muldiv", 6, 2)
        assert proc._compile_path == "cold"
        assert proc.function(entry, "i", "i")(7) == 21

    def test_namespaces_partition_programs(self, tmp_path):
        _warm(tmp_path)
        _proc(MULDIV, codecache_dir=str(tmp_path)).run("make_muldiv", 3, 1)
        from repro.persist.diskcache import _flush_all_at_exit

        _flush_all_at_exit()
        # The two programs must land in two distinct namespaces (the
        # driver hashes the full merged source, prelude included).
        namespaces = {p.split(os.sep)[-3] for p in _entry_files(tmp_path)}
        assert len(namespaces) == 2
        assert all(len(ns) == len(program_namespace(ADDER))
                   for ns in namespaces)

    def test_engine_fleet_warm_start(self, tmp_path):
        eng1 = Engine(ADDER, codecache_dir=str(tmp_path))
        with eng1.session() as s:
            assert s.request("make_adder", (40,), call_args=(3,)).ok
        eng2 = Engine(ADDER, codecache_dir=str(tmp_path))
        with eng2.session() as s:
            out = s.request("make_adder", (40,), call_args=(3,))
            assert out.ok and out.value == 43
            assert out.path == "patched", \
                "second engine cold-compiled a fleet-shared shape"

    def test_template_with_a_callee_links_only_where_it_lies(self, tmp_path):
        """A persisted body embeds its callee's resolved address: a
        process whose static code puts the callee elsewhere must miss
        and compile cold, never clone a call to the wrong place."""
        root = str(tmp_path)
        donor = _proc(SQUARE, codecache_dir=root)
        donor.run("make_sq", 1)
        donor.codecache.flush()
        same = _proc(SQUARE, codecache_dir=root)
        entry = same.run("make_sq", 4)
        assert same._compile_path == "patched"
        assert same.function(entry, "i", "i")(7) == 53
        moved = _proc(SQUARE, codecache_dir=root, static_opt="gcc")
        assert moved.machine.code.symbols["sq"] != \
            same.machine.code.symbols["sq"]
        entry = moved.run("make_sq", 5)
        assert moved._compile_path == "cold"
        assert moved.function(entry, "i", "i")(7) == 54


class TestIntegrity:
    def test_corrupted_operand_is_rejected_and_file_deleted(self, tmp_path):
        path = _warm(tmp_path)
        with open(path) as fh:
            payload = json.load(fh)
        # Tamper one instruction operand without re-sealing the digest.
        instrs = payload["templates"][0]["instructions"]
        instrs[0][1] = (instrs[0][1] or 0) + 1
        with open(path, "w") as fh:
            json.dump(payload, fh)
        rejects = REGISTRY.counter("cache.disk.rejects").value
        proc = _proc(codecache_dir=str(tmp_path))
        entry = proc.run("make_adder", 10)
        assert proc._compile_path == "cold"
        assert proc.function(entry, "i", "i")(5) == 15
        assert REGISTRY.counter("cache.disk.rejects").value == rejects + 1
        assert not os.path.exists(path), "corrupt entry must self-heal away"

    def test_truncated_file_is_rejected(self, tmp_path):
        path = _warm(tmp_path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        rejects = REGISTRY.counter("cache.disk.rejects").value
        proc = _proc(codecache_dir=str(tmp_path))
        entry = proc.run("make_adder", 10)
        assert proc._compile_path == "cold"
        assert proc.function(entry, "i", "i")(2) == 12
        assert REGISTRY.counter("cache.disk.rejects").value == rejects + 1
        assert not os.path.exists(path)

    def test_format_version_mismatch_is_silent_miss(self, tmp_path):
        path = _warm(tmp_path)
        with open(path) as fh:
            payload = json.load(fh)
        payload["format"] = FORMAT_VERSION + 998
        with open(path, "w") as fh:
            json.dump(payload, fh)
        rejects = REGISTRY.counter("cache.disk.rejects").value
        proc = _proc(codecache_dir=str(tmp_path))
        entry = proc.run("make_adder", 10)
        assert proc._compile_path == "cold"
        assert proc.function(entry, "i", "i")(1) == 11
        # Not corruption: no reject, and the file is left for whichever
        # (newer/older) worker understands that format.
        assert REGISTRY.counter("cache.disk.rejects").value == rejects
        assert os.path.exists(path)

    def test_fingerprint_mismatch_is_silent_miss(self, tmp_path):
        path = _warm(tmp_path)
        with open(path) as fh:
            payload = json.load(fh)
        payload["fingerprint"] = "0" * 64
        with open(path, "w") as fh:
            json.dump(payload, fh)
        proc = _proc(codecache_dir=str(tmp_path))
        assert proc.run("make_adder", 10) and proc._compile_path == "cold"
        assert os.path.exists(path)

    def test_corrupt_disk_chaos_end_to_end(self, tmp_path):
        eng1 = Engine(ADDER, codecache_dir=str(tmp_path))
        with eng1.session() as s:
            assert s.request("make_adder", (10,), call_args=(1,)).ok
        rejects = REGISTRY.counter("cache.disk.rejects").value
        eng2 = Engine(ADDER, codecache_dir=str(tmp_path))
        with eng2.session(chaos=ChaosPlan(at={1: "corrupt_disk"})) as s:
            out = s.request("make_adder", (10,), call_args=(1,))
            assert out.ok and out.value == 11
            assert out.path == "cold"
        assert REGISTRY.counter("cache.disk.rejects").value > rejects


class TestConcurrency:
    def test_eight_writers_lose_nothing(self, tmp_path):
        """Eight processes (one per thread) hammer one shared directory
        with loads and stores; afterwards every entry file must parse,
        every template digest must verify, and a fresh process must
        warm-start from the survivors."""
        errors = []

        def worker(i):
            try:
                proc = _proc(codecache_dir=str(tmp_path))
                for n in (10, 20, 30 + i):
                    entry = proc.run("make_adder", n)
                    assert proc.function(entry, "i", "i")(1) == n + 1
                proc.codecache.flush()
            except BaseException as exc:      # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        files = _entry_files(tmp_path)
        assert files, "no entries survived the hammer"
        for path in files:
            with open(path) as fh:
                payload = json.load(fh)
            assert payload["format"] == FORMAT_VERSION
            for raw in payload["templates"]:
                assert raw["digest"] == payload_digest(raw)
                decode_template(raw)   # must not raise

        proc = _proc(codecache_dir=str(tmp_path))
        entry = proc.run("make_adder", 10)
        assert proc._compile_path == "patched"
        assert proc.function(entry, "i", "i")(9) == 19


class TestDifferential:
    @pytest.mark.parametrize("source, builder, args, call, want", [
        (ADDER, "make_adder", (10,), 5, 15),
        (MULDIV, "make_muldiv", (6, 2), 7, 21),
    ])
    def test_replayed_template_is_bit_identical_to_cold_compile(
            self, tmp_path, source, builder, args, call, want):
        """A template deserialized from disk and clone+patched must emit
        the exact instruction sequence a cold compile would have."""
        warm_src = _proc(source, codecache_dir=str(tmp_path))
        warm_src.run(builder, *args)
        warm_src.codecache.flush()

        def capture(proc):
            entry = proc.run(builder, *args)
            here = proc.machine.code.here
            code = [(i.op, i.a, i.b, i.c)
                    for i in proc.machine.code.instructions[entry:here]]
            return entry, code, proc.function(entry, "i", "i")(call)

        warm = _proc(source, codecache_dir=str(tmp_path))
        cold = _proc(source, codecache=False)
        warm_entry, warm_code, warm_value = capture(warm)
        cold_entry, cold_code, cold_value = capture(cold)
        assert warm._compile_path == "patched"
        assert warm_entry == cold_entry
        assert warm_code == cold_code, \
            "disk-replayed code diverged from a cold compile"
        assert warm_value == cold_value == want
