"""Finder cache correctness: warm replay and parallel identity.

Stale-replay protection (a source edit orphans every finder entry) is
covered with the other namespaces in ``tests/pipeline/test_cache.py``.

* Parallel per-section scans (``find_gadgets(jobs=N)``) must leave the
  on-disk cache **byte-identical** to a serial run's: same keys, same
  pickled payloads.  That is what lets pool workers and later serial
  runs share one cache directory without re-scanning.
"""

import os
import pickle

from repro.binary import BinaryImage, Perm, Section
from repro.cache import cache_session
from repro.gadgets import find_gadgets, reference_find_gadgets
from repro.x86 import Assembler, EAX, EBX, ECX


def _fingerprint(gadgets):
    return [(g.address, g.end, g.kind.key()) for g in gadgets]


def _multi_section_image():
    image = BinaryImage("multi")
    a = Assembler()
    a.pop(EAX); a.ret(); a.nop(); a.mov(EBX, EAX); a.ret()
    b = Assembler()
    b.pop(EBX); b.ret(); b.pop(ECX); b.nop(); b.ret()
    c = Assembler()
    c.mov(ECX, EBX); c.ret(); c.nop(); c.nop(); c.ret()
    image.add_section(Section(".text", 0x1000, a.assemble(), Perm.RX))
    image.add_section(Section(".text2", 0x2000, b.assemble(), Perm.RX))
    image.add_section(Section(".text3", 0x3000, c.assemble(), Perm.RX))
    image.add_section(Section(".data", 0x4000, b"\xc3" * 16, Perm.R))
    return image


def _disk_snapshot(root):
    snapshot = {}
    for directory, _subdirs, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                snapshot[os.path.relpath(path, root)] = fh.read()
    return snapshot


def test_cached_scan_replays_identically(tmp_path):
    image = _multi_section_image()
    with cache_session(cache_dir=str(tmp_path)):
        cold = find_gadgets(image)
        warm = find_gadgets(image)
    assert _fingerprint(cold) == _fingerprint(warm)
    assert _fingerprint(cold) == _fingerprint(reference_find_gadgets(image))


def test_parallel_and_serial_scans_write_identical_cache_bytes(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"

    with cache_session(cache_dir=str(serial_dir)):
        serial = find_gadgets(_multi_section_image(), jobs=1)
    with cache_session(cache_dir=str(parallel_dir)):
        parallel = find_gadgets(_multi_section_image(), jobs=3)

    assert _fingerprint(serial) == _fingerprint(parallel)
    serial_snapshot = _disk_snapshot(str(serial_dir))
    parallel_snapshot = _disk_snapshot(str(parallel_dir))
    assert serial_snapshot.keys() == parallel_snapshot.keys()
    assert serial_snapshot == parallel_snapshot
    # And the payloads really are gadget lists for the image's sections.
    assert len(serial_snapshot) == 3
    for blob in serial_snapshot.values():
        assert pickle.loads(blob)


def test_parallel_scan_merges_worker_metrics_deterministically(tmp_path):
    from repro.telemetry import telemetry_session

    def counters(jobs):
        with telemetry_session(metrics=True) as (registry, _tracer):
            with cache_session(enabled=False):
                find_gadgets(_multi_section_image(), jobs=jobs)
        samples = registry.to_dict()
        return {
            name: samples[name]["value"]
            for name in (
                "gadgets.offsets_scanned",
                "gadgets.accepted",
                "gadgets.rejected",
            )
        }

    assert counters(1) == counters(3)
